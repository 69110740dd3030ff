"""Pluggable unlearning methods: the U step of the un-pruning loop.

Three desk-scale families plus a no-op ablation:

  * gradient_ascent  -- full-batch ascent on the forget-set loss
  * fisher_forgetting -- Gaussian scrubbing scaled by the inverse diagonal
    Fisher (parameters important for the retain set receive less noise)
  * finetune          -- SGD descent on the retain set only
  * noop              -- identity, for ablations

All methods consume and return the same model shape, so the un-pruning loop
runs unmodified with any of them. With ``dense=False`` gradients flow only
to parameters with mask 1 (masked-out entries stay exactly 0); ``dense=True``
ignores masks entirely, which is what the loop uses after re-initialization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .data import Dataset, DeletionSplit
from .errors import ConfigError, InputError
from .model import GradientSet, GradientStep, MaskedModel, _forward_trace, _layer_deltas
from .numeric import SeededRng, blas_scope, matmul, softmax
from .train import sgd_step

METHODS = ("noop", "gradient_ascent", "fisher_forgetting", "finetune")

FISHER_EPS = 1e-8  # stabilizer against division by zero on dead parameters


@dataclass(frozen=True)
class UnlearnConfig:
    method: str = "noop"
    steps: int = 1
    rate: float = 1e-3
    fisher_noise_scale: float = 1e-3
    batch_size: int = 64

    def validate(self) -> "UnlearnConfig":
        if self.method not in METHODS:
            raise ConfigError(f"unknown unlearning method {self.method!r}")
        if self.method != "noop":
            if self.steps < 1:
                raise ConfigError("steps must be >= 1 for non-noop methods")
            if self.rate <= 0 and self.method != "fisher_forgetting":
                raise ConfigError("rate must be > 0 for gradient-based methods")
        return self


def _descend(model: MaskedModel, batches, rate: float, dense: bool) -> MaskedModel:
    """One ``sgd_step`` on the loss of each ``(inputs, labels)`` batch, in place."""
    step = GradientStep(masked=not dense)
    with blas_scope():
        for x, y in batches:
            sgd_step(model, step.gradients(model, x, y), rate)
    return model


def unlearn_gradient_ascent(
    model: MaskedModel,
    dataset: Dataset,
    forget_rows: np.ndarray,
    steps: int,
    rate: float,
    dense: bool = False,
) -> MaskedModel:
    """Full-batch gradient ascent on the forget-set loss, in place."""
    forget_rows = np.asarray(forget_rows, dtype=np.int64)
    if len(forget_rows) == 0:
        raise InputError("forget row set is empty")
    batch = (dataset.inputs[forget_rows], dataset.labels[forget_rows])
    return _descend(model, itertools.repeat(batch, steps), -rate, dense)


def fisher_diag(
    model: MaskedModel,
    dataset: Dataset,
    rows: np.ndarray,
    dense: bool = False,
) -> GradientSet:
    """Diagonal empirical Fisher: mean over rows of squared per-sample grads.

    For an MLP the per-sample weight gradient is an outer product
    delta_i x_i^T, so the squared sum factorizes and the whole estimate is
    one batched pass (deterministic reduction order).
    """
    rows = np.asarray(rows, dtype=np.int64)
    if len(rows) == 0:
        raise InputError("fisher row set is empty")
    x = dataset.inputs[rows]
    y = dataset.labels[rows]
    acts, pre, applied = _forward_trace(model, x, masked=not dense)
    # Per-sample gradient of the per-sample loss: no 1/batch factor.
    delta = softmax(acts[-1])
    delta[np.arange(len(rows)), y] -= 1.0
    n = float(len(rows))
    f_w = [None] * len(model.layers)
    f_b = [None] * len(model.layers)
    for l, d in _layer_deltas(model, pre, applied, delta):
        f_w[l] = matmul((d ** 2).T, acts[l] ** 2) / n
        if not dense:
            f_w[l] *= model.masks[l]
        f_b[l] = (d ** 2).mean(axis=0)
    return GradientSet(weights=f_w, biases=f_b)


def unlearn_fisher_forgetting(
    model: MaskedModel,
    split: DeletionSplit,
    dataset: Dataset,
    noise_scale: float,
    rng: SeededRng,
    dense: bool = False,
) -> MaskedModel:
    """Scrub by Fisher-scaled Gaussian noise: theta_i += N(0, s^2/(F_ii+eps)).

    The Fisher is estimated on the retain set (the scrubbing convention), so
    parameters that matter for retained data receive less noise.
    """
    if noise_scale < 0:
        raise InputError(f"noise scale must be >= 0, got {noise_scale}")
    if noise_scale == 0:
        return model
    fisher = fisher_diag(model, dataset, split.retain_indices, dense=dense)
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        std_w = noise_scale / np.sqrt(fisher.weights[l] + FISHER_EPS)
        noise_w = rng.normal(w.size, 0.0, 1.0).reshape(w.shape) * std_w
        if not dense:
            noise_w *= model.masks[l]
        w += noise_w
        std_b = noise_scale / np.sqrt(fisher.biases[l] + FISHER_EPS)
        b += rng.normal(b.size, 0.0, 1.0) * std_b
    return model


def unlearn_finetune(
    model: MaskedModel,
    dataset: Dataset,
    retain_rows: np.ndarray,
    steps: int,
    rate: float,
    batch_size: int,
    rng: SeededRng,
    dense: bool = False,
) -> MaskedModel:
    """SGD descent on the retain set only, for a fixed number of steps."""
    retain_rows = np.asarray(retain_rows, dtype=np.int64)
    if len(retain_rows) == 0:
        raise InputError("retain row set is empty")
    if batch_size < 1:
        raise InputError(f"batch_size must be >= 1, got {batch_size}")
    batches = _retain_batches(dataset, retain_rows, steps, batch_size, rng)
    return _descend(model, batches, rate, dense)


def _retain_batches(dataset: Dataset, rows: np.ndarray, steps: int,
                    batch_size: int, rng: SeededRng):
    """Finetune's batches: one batch of all rows, or slices of a reshuffled
    permutation.

    The first shuffle is drawn even when all rows fit, as it always was.
    """
    order = rows[rng.permutation(len(rows))]
    if batch_size >= len(rows):
        yield from itertools.repeat((dataset.inputs[rows], dataset.labels[rows]),
                                    steps)
        return
    cursor = 0
    for _ in range(steps):
        if cursor + batch_size > len(order):
            order = rows[rng.permutation(len(rows))]
            cursor = 0
        batch = order[cursor:cursor + batch_size]
        cursor += batch_size
        yield dataset.inputs[batch], dataset.labels[batch]


def unlearn(
    model: MaskedModel,
    split: DeletionSplit,
    dataset: Dataset,
    config: UnlearnConfig,
    rng: SeededRng,
    dense: bool = False,
) -> MaskedModel:
    """Dispatch to the configured method; deterministic under the given rng."""
    config.validate()
    if config.method == "noop":
        return model
    if config.method == "gradient_ascent":
        return unlearn_gradient_ascent(
            model, dataset, split.forget_indices, config.steps, config.rate, dense
        )
    if config.method == "fisher_forgetting":
        return unlearn_fisher_forgetting(
            model, split, dataset, config.fisher_noise_scale,
            rng.split("fisher-noise"), dense,
        )
    if config.method == "finetune":
        return unlearn_finetune(
            model, dataset, split.retain_indices, config.steps, config.rate,
            config.batch_size, rng.split("finetune-shuffle"), dense,
        )
    raise ConfigError(f"unknown unlearning method {config.method!r}")
