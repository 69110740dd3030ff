"""Mask production: magnitude pruning, structured l2 pruning, accounting.

Tie-breaking is deterministic everywhere: equal scores are resolved toward
the lowest flat weight index (or lowest neuron index), via stable sorts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .model import MaskedModel, apply_mask
from .numeric import round_count


@dataclass(frozen=True)
class SparsityReport:
    """Zero mask entries over all weight mask entries, biases excluded."""
    total_weights: int
    zero_mask_entries: int

    @property
    def sparsity(self) -> float:
        return self.zero_mask_entries / self.total_weights


def sparsity_of(model: MaskedModel) -> SparsityReport:
    """Exact zero count over the weight masks of all layers (biases
    excluded). One layer's count is ``m.size - m.sum()`` of its mask."""
    total = sum(m.size for m in model.masks)
    zeros = sum(int(m.size - m.sum()) for m in model.masks)
    return SparsityReport(total_weights=total, zero_mask_entries=zeros)


def _smallest(scores: np.ndarray, candidates: np.ndarray,
              count: int) -> np.ndarray:
    """The ``count`` candidates of lowest score; equal scores fall in
    candidate order (a stable sort). Grow passes the negated score."""
    return candidates[np.argsort(scores[candidates], kind="stable")[:count]]


def _set_flat(arrays: list[np.ndarray], flat: np.ndarray) -> None:
    """Write the concatenation ``flat`` back over ``arrays``, in order."""
    offset = 0
    for a in arrays:
        a[...] = flat[offset:offset + a.size].reshape(a.shape)
        offset += a.size


def row_norms(model: MaskedModel, l: int) -> np.ndarray:
    """The incoming-row l2 norm of each output unit of layer ``l``."""
    return np.sqrt((model.weights[l] ** 2).sum(axis=1))


def prune_magnitude(
    model: MaskedModel, target_sparsity: float, scope: str = "global"
) -> MaskedModel:
    """Mask the smallest-magnitude surviving weights down to target sparsity.

    ``global`` ranks magnitudes across all layers; ``per_layer`` applies the
    target to each layer's own weight count. Counts use round-half-up, so the
    final zero count is exactly round(target * N).
    """
    if scope not in ("global", "per_layer"):
        raise InputError(f"unknown prune scope {scope!r}")
    if not 0.0 <= target_sparsity < 1.0:
        raise InputError(f"target sparsity must lie in [0, 1), got {target_sparsity}")
    layers = list(range(len(model.masks)))
    for group in [layers] if scope == "global" else [[l] for l in layers]:
        weights = [model.weights[l] for l in group]
        masks = [model.masks[l] for l in group]
        flat_w = np.concatenate([w.ravel() for w in weights])
        flat_m = np.concatenate([m.ravel() for m in masks])
        target_zeros = round_count(target_sparsity * flat_m.size)
        current = int(flat_m.size - flat_m.sum())
        if target_zeros < current:
            raise InputError(
                f"layers {group}: target sparsity {target_sparsity} is below "
                f"current {current / flat_m.size:.6f}"
            )
        victims = _smallest(np.abs(flat_w), np.flatnonzero(flat_m == 1.0),
                            target_zeros - current)
        flat_m[victims] = 0.0
        flat_w[victims] = 0.0
        _set_flat(weights, flat_w)
        _set_flat(masks, flat_m)
    return apply_mask(model)


def hidden_layer_indices(model: MaskedModel) -> list[int]:
    """Layers whose output units are hidden neurons (all but the last)."""
    return list(range(len(model.weights) - 1))


def prune_structured_l2(model: MaskedModel, prune_fraction: float) -> MaskedModel:
    """Mask whole hidden neurons with the smallest incoming-row l2 norm.

    Per hidden layer, floor(fraction * units) rows are zeroed entirely (mask,
    weights and the neuron's bias). Already-pruned rows have zero norm and are
    therefore re-selected first, which makes the operation monotone.
    """
    if not 0.0 < prune_fraction < 1.0:
        raise InputError(f"prune fraction must lie in (0, 1), got {prune_fraction}")
    hidden = hidden_layer_indices(model)
    if not hidden:
        raise InputError("model has no hidden layers to prune")
    for l in hidden:
        units = model.weights[l].shape[0]
        k = int(np.floor(prune_fraction * units))
        if k == 0:
            continue
        if k >= units:
            raise InputError(f"layer {l}: pruning would leave zero active neurons")
        victims = _smallest(row_norms(model, l), np.arange(units), k)
        model.masks[l][victims, :] = 0.0
        model.weights[l][victims, :] = 0.0
        model.biases[l][victims] = 0.0
    return model


def neuron_mask(model: MaskedModel) -> np.ndarray:
    """Per-hidden-neuron activity vector: 1 if any incoming mask entry is 1."""
    parts = [
        (model.masks[l].sum(axis=1) > 0).astype(np.float64)
        for l in hidden_layer_indices(model)
    ]
    if not parts:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate(parts)
