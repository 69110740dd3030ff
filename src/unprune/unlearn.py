"""Pluggable unlearning methods: the U step of the un-pruning loop.

Three desk-scale families plus a no-op ablation:

  * gradient_ascent  -- full-batch ascent on the forget-set loss
  * fisher_forgetting -- Gaussian scrubbing scaled by the inverse diagonal
    Fisher (parameters important for the retain set receive less noise)
  * finetune          -- full-batch descent on the retain-set loss
  * noop              -- identity, for ablations

All methods consume and return the same model shape, so the un-pruning loop
runs unmodified with any of them. Gradient ascent and finetune step on
``train``'s flat step: the model's weights and biases in one flat vector,
updated by two vector operations per step and copied back into the model's
arrays when the steps end or one raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, DeletionSplit
from .errors import ConfigError, InputError
from .model import GradientSet, MaskedModel, _forward_trace, _layer_deltas
from .numeric import (SeededRng, _cross_entropy_rows, _true_class_index,
                      matmul, softmax)
from .train import _flat_step

# The methods and the UnlearnConfig fields each one reads: its config table
# [unlearn.<method>] takes exactly these keys, and validate checks only these.
METHODS = {"noop": (), "gradient_ascent": ("steps", "rate"),
           "fisher_forgetting": ("fisher_noise_scale",),
           "finetune": ("steps", "rate")}

FISHER_EPS = 1e-8  # stabilizer against division by zero on dead parameters


@dataclass(frozen=True)
class UnlearnConfig:
    method: str = "noop"
    steps: int = 1
    rate: float = 1e-3
    fisher_noise_scale: float = 1e-3

    def validate(self) -> "UnlearnConfig":
        if self.method not in METHODS:
            raise ConfigError(f"unknown unlearning method {self.method!r}")
        reads, m = METHODS[self.method], self.method
        if "steps" in reads and not self.steps >= 1:
            raise ConfigError(f"{m} steps must be >= 1, got {self.steps}")
        if "rate" in reads and not self.rate > 0:
            raise ConfigError(f"{m} rate must be > 0, got {self.rate}")
        if "fisher_noise_scale" in reads and not self.fisher_noise_scale >= 0:
            raise ConfigError(f"{m} fisher_noise_scale must be >= 0, "
                              f"got {self.fisher_noise_scale}")
        return self


def _descend(model: MaskedModel, dataset: Dataset, rows: np.ndarray,
             role: str, steps: int, rate: float) -> MaskedModel:
    """``steps`` full-batch steps ``theta -= rate * grad`` on the loss over
    ``rows``, in place, on ``train``'s flat step.

    The batch is the same every step, so its labels are checked once.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if len(rows) == 0:
        raise InputError(f"{role} row set is empty")
    x, y = dataset.inputs[rows], dataset.labels[rows]
    true_index = _true_class_index(y, len(rows), model.weights[-1].shape[0])
    with _flat_step(model) as flat:
        for _ in range(steps):
            trace = flat.trace(x)
            _, delta = _cross_entropy_rows(trace[0][-1], true_index, nll=False)
            flat.update(trace, delta, rate)
    return model


def unlearn_gradient_ascent(
    model: MaskedModel,
    dataset: Dataset,
    forget_rows: np.ndarray,
    steps: int,
    rate: float,
) -> MaskedModel:
    """Full-batch gradient ascent on the forget-set loss, in place."""
    return _descend(model, dataset, forget_rows, "forget", steps, -rate)


def fisher_diag(
    model: MaskedModel,
    dataset: Dataset,
    rows: np.ndarray,
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
    acts, masks = _forward_trace(model, x)
    # Per-sample gradient of the per-sample loss: no 1/batch factor.
    delta = softmax(acts[-1])
    delta[np.arange(len(rows)), y] -= 1.0
    n = float(len(rows))
    f_w = [None] * len(model.weights)
    f_b = [None] * len(model.weights)
    for l, d in _layer_deltas(model, masks, delta):
        f_w[l] = matmul((d ** 2).T, acts[l] ** 2) / n
        f_b[l] = (d ** 2).mean(axis=0)
    return GradientSet(weights=f_w, biases=f_b)


def unlearn_fisher_forgetting(
    model: MaskedModel,
    split: DeletionSplit,
    dataset: Dataset,
    noise_scale: float,
    rng: SeededRng,
) -> MaskedModel:
    """Scrub by Fisher-scaled Gaussian noise: theta_i += N(0, s^2/(F_ii+eps)).

    The Fisher is estimated on the retain set (the scrubbing convention), so
    parameters that matter for retained data receive less noise.
    """
    if noise_scale < 0:
        raise InputError(f"noise scale must be >= 0, got {noise_scale}")
    if noise_scale == 0:
        return model
    fisher = fisher_diag(model, dataset, split.retain_indices)
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        std_w = noise_scale / np.sqrt(fisher.weights[l] + FISHER_EPS)
        w += rng.normal(w.size, 0.0, 1.0).reshape(w.shape) * std_w
        std_b = noise_scale / np.sqrt(fisher.biases[l] + FISHER_EPS)
        b += rng.normal(b.size, 0.0, 1.0) * std_b
    return model


def unlearn_finetune(
    model: MaskedModel,
    dataset: Dataset,
    retain_rows: np.ndarray,
    steps: int,
    rate: float,
) -> MaskedModel:
    """Full-batch descent on the retain-set loss, in place: the mirror of
    gradient ascent on the forget rows."""
    return _descend(model, dataset, retain_rows, "retain", steps, rate)


def unlearn(
    model: MaskedModel,
    split: DeletionSplit,
    dataset: Dataset,
    config: UnlearnConfig,
    rng: SeededRng,
) -> MaskedModel:
    """Dispatch to the configured method; deterministic under the given rng."""
    config.validate()
    if config.method == "gradient_ascent":
        return unlearn_gradient_ascent(
            model, dataset, split.forget_indices, config.steps, config.rate
        )
    if config.method == "fisher_forgetting":
        return unlearn_fisher_forgetting(
            model, split, dataset, config.fisher_noise_scale,
            rng.split("fisher-noise"),
        )
    if config.method == "finetune":
        return unlearn_finetune(
            model, dataset, split.retain_indices, config.steps, config.rate
        )
    return model  # noop
