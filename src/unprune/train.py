"""Plain full-batch gradient descent, plus accuracy evaluation.

No minibatches, momentum, weight decay or schedules: the simplest
optimizer keeps seed-for-seed comparisons between runs interpretable.
Masks are applied before the first step and re-applied after every step,
so training never changes the topology.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, write_csv
from .errors import InputError, NumericError
from .model import GradientSet, GradientStep, MaskedModel, apply_mask, forward
from .model import backward  # noqa: F401  (perfbench wraps unprune.train.backward)
from .numeric import SeededRng, _mean_loss, blas_scope, softmax_cross_entropy


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
    pruned weight is a stored 0 in every pass, and a non-finite loss or
    product aborts with an error naming the epoch.

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
    step = GradientStep()
    log = TrainLog()
    apply_mask(model)
    with blas_scope():
        for epoch in range(epochs):
            perm = rng.permutation(len(indices))
            order = indices[perm]
            x, y = dataset.inputs[order], dataset.labels[order]
            with _diverged_at(max(epoch - 1, 0)):
                # This pass sees the model as the previous epoch left it.
                logits = step.forward(model, x)
                nll = step.loss_gradient(y, nll=epoch > 0)
                if epoch > 0:
                    # evaluate sums the per-row losses in `indices` order.
                    by_index = np.empty_like(nll)
                    by_index[perm] = nll
                    loss = _mean_loss(by_index)
            if epoch > 0:
                accuracy = float((np.argmax(logits, axis=1) == y).mean())
                log.record(epoch - 1, "train", loss, accuracy)
            with _diverged_at(epoch):
                sgd_step(model, step.backward(model), lr)
                apply_mask(model)
                if epoch == epochs - 1:
                    log.record(epoch, "train",
                               *evaluate(model, dataset, indices))
    return log


def sgd_step(model: MaskedModel, grads: GradientSet, rate: float) -> None:
    """One in-place step ``theta -= rate * grad``; a negative rate ascends.

    Consumes ``grads`` as scratch space and leaves the mask to the caller.
    """
    for w, b, gw, gb in zip(model.weights, model.biases, grads.weights,
                            grads.biases):
        gw *= rate
        w -= gw
        gb *= rate
        b -= gb


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
