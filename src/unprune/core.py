"""The un-pruning loop: re-activate, unlearn, regrow, re-prune.

Per iteration the pruned parameters are re-initialized to nonzero values
(saved init or fresh random draws), the unlearning method runs on the dense
model with every parameter trainable, the mask grows back the
highest-magnitude masked entries, and the mask is re-asserted. After the
final iteration the model is one-shot pruned back to its original sparsity,
so the output is directly comparable with a retrain+reprune oracle at the
same sparsity -- but its mask may differ from the input mask, which is the
point.

The grow fraction is a fraction of ALL weights (for the structured variant,
of all hidden neurons): growing p per iteration takes sparsity from s to
s - T*p before the final re-prune restores s.

``topology(mode, scope)`` is the one place that maps a prune mode to its
prune, grow and kept-mask operations (``Unstructured`` / ``Structured``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, DeletionSplit, write_csv
from .errors import ConfigError, InputError
from .model import MaskedModel, apply_mask
from .numeric import SeededRng, blas_scope, round_count
from .prune import (
    hidden_layer_indices,
    neuron_mask,
    prune_magnitude,
    prune_structured_l2,
    sparsity_of,
)
from .train import evaluate
from .unlearn import UnlearnConfig, unlearn

INIT_STRATEGIES = ("original", "random")


@dataclass(frozen=True)
class UnpruneConfig:
    original_sparsity: float
    grow_per_iter: float
    iterations: int
    unlearn: UnlearnConfig
    init_strategy: str = "original"
    random_init_std: float = 0.01

    def validate(self) -> "UnpruneConfig":
        if self.init_strategy not in INIT_STRATEGIES:
            raise ConfigError(f"unknown init strategy {self.init_strategy!r}")
        if not 0.0 < self.original_sparsity < 1.0:
            raise ConfigError(
                f"original sparsity must lie in (0, 1), got {self.original_sparsity}"
            )
        if self.grow_per_iter <= 0:
            raise ConfigError("grow_per_iter must be > 0")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.original_sparsity - self.iterations * self.grow_per_iter < -1e-9:
            raise ConfigError(
                f"sparsity underflow: {self.original_sparsity} - "
                f"{self.iterations} * {self.grow_per_iter} < 0"
            )
        if self.random_init_std < 0:
            raise ConfigError("random_init_std must be >= 0")
        self.unlearn.validate()
        return self


@dataclass
class UnpruneTrace:
    initial_sparsity: float
    rows: list[tuple[int, float, float, float, int]] = field(default_factory=list)
    final_sparsity: float = float("nan")
    grown: list[np.ndarray] = field(default_factory=list)

    def record(self, iteration, sparsity, ua, ta, grown_count) -> None:
        self.rows.append(
            (int(iteration), float(sparsity), float(ua), float(ta), int(grown_count))
        )

    def to_csv(self, path: str) -> None:
        write_csv(path, ("iteration", "sparsity", "ua", "ta", "grown_count"),
                  [*self.rows, ("final", self.final_sparsity, "", "", 0)])


def reinit_pruned(
    model: MaskedModel,
    strategy: str,
    rng: SeededRng,
    random_init_std: float = 0.01,
) -> MaskedModel:
    """Give masked-out entries nonzero values again, leaving the rest alone.

    ``original`` restores the saved init snapshot at masked positions;
    ``random`` draws fresh N(0, std^2) values there.
    """
    if strategy not in INIT_STRATEGIES:
        raise InputError(f"unknown init strategy {strategy!r}")
    for l, (w, m) in enumerate(zip(model.weights, model.masks)):
        holes = m == 0.0
        if strategy == "original":
            w[holes] = model.init_snapshot[l][holes]
        else:
            count = int(holes.sum())
            if count:
                w[holes] = rng.normal(count, 0.0, random_init_std)
    return model


def grow_mask(model: MaskedModel, p: float) -> tuple[MaskedModel, np.ndarray]:
    """Flip the round(p*N) highest-|weight| masked entries back to 1.

    Candidates are only currently-masked entries; ties break toward the
    lowest flat index. Returns the grown flat indices.
    """
    if p < 0:
        raise InputError(f"grow fraction must be >= 0, got {p}")
    n = model.num_weights
    count = round_count(p * n)
    if count == 0:
        return model, np.zeros(0, dtype=np.int64)
    flat_m = model.flat_masks()
    flat_w = model.flat_weights()
    candidates = np.flatnonzero(flat_m == 0.0)
    if count > len(candidates):
        raise InputError(
            f"cannot grow {count} entries: only {len(candidates)} are masked"
        )
    # Stable sort on negated magnitude: descending, ties at lowest flat index.
    order = candidates[np.argsort(-np.abs(flat_w[candidates]), kind="stable")]
    grown = np.sort(order[:count])
    flat_m[grown] = 1.0
    offset = 0
    for m in model.masks:
        m[...] = flat_m[offset:offset + m.size].reshape(m.shape)
        offset += m.size
    return model, grown


def grow_mask_structured(
    model: MaskedModel, p_units: float
) -> tuple[MaskedModel, np.ndarray]:
    """Restore whole pruned hidden neurons with the highest incoming l2 norm.

    Count is round(p_units * total hidden units), chosen globally across
    hidden layers; ties break toward the lowest global neuron index.
    Returns the grown global neuron indices.
    """
    if p_units < 0:
        raise InputError(f"grow fraction must be >= 0, got {p_units}")
    hidden = hidden_layer_indices(model)
    active = neuron_mask(model)
    pruned = np.flatnonzero(active == 0.0)
    if len(pruned) == 0:
        raise InputError("no pruned neurons to grow")
    total_hidden = len(active)
    count = round_count(p_units * total_hidden)
    if count == 0:
        return model, np.zeros(0, dtype=np.int64)
    count = min(count, len(pruned))
    norms = np.concatenate(
        [np.sqrt((model.weights[l] ** 2).sum(axis=1)) for l in hidden]
    )
    order = pruned[np.argsort(-norms[pruned], kind="stable")]
    grown = np.sort(order[:count])
    offsets = np.cumsum([0] + [model.layers[l].out_dim for l in hidden])
    for g in grown:
        layer_pos = int(np.searchsorted(offsets, g, side="right") - 1)
        l = hidden[layer_pos]
        row = int(g - offsets[layer_pos])
        model.masks[l][row, :] = 1.0
    return model, grown


class Unstructured:
    """Single weights: magnitude pruning, growth and flat weight masks."""

    def __init__(self, scope: str = "global"):
        self.scope = scope

    def prune(self, model: MaskedModel, sparsity: float) -> MaskedModel:
        return prune_magnitude(model, sparsity, scope=self.scope)

    def grow(self, model: MaskedModel, p: float) -> np.ndarray:
        return grow_mask(model, p)[1]

    def kept(self, model: MaskedModel) -> np.ndarray:
        return model.flat_masks()


class Structured:
    """Whole hidden neurons: l2 row pruning, growth and neuron masks."""

    def prune(self, model: MaskedModel, sparsity: float) -> MaskedModel:
        return prune_structured_l2(model, sparsity)

    def grow(self, model: MaskedModel, p: float) -> np.ndarray:
        return grow_mask_structured(model, p)[1]

    def kept(self, model: MaskedModel) -> np.ndarray:
        return neuron_mask(model)


def topology(mode: str, scope: str = "global") -> Unstructured | Structured:
    """The topology a (prune mode, scope) pair names; only weights have a scope."""
    if mode == "unstructured":
        topo = Unstructured(scope)
    elif mode == "structured":
        topo = Structured()
    else:
        raise ConfigError(f"unknown prune mode {mode!r}")
    if scope not in ("global", "per_layer"):
        raise ConfigError(f"unknown prune scope {scope!r}")
    return topo


def ua_ta(model: MaskedModel, dataset: Dataset, split: DeletionSplit,
          test_data: Dataset | None) -> tuple[float, float]:
    """(UA, TA): accuracy on the forget rows, then on ``test_data`` if there
    is any, else on the retain rows."""
    _, ua = evaluate(model, dataset, split.forget_indices)
    if test_data is not None:
        _, ta = evaluate(model, test_data, np.arange(test_data.n))
    else:
        _, ta = evaluate(model, dataset, split.retain_indices)
    return ua, ta


def unprune(
    model: MaskedModel,
    dataset: Dataset,
    split: DeletionSplit,
    config: UnpruneConfig,
    rng: SeededRng,
    mode: str = "unstructured",
    test_data: Dataset | None = None,
    scope: str = "global",
) -> tuple[MaskedModel, UnpruneTrace]:
    """Run the full un-pruning loop in place; returns (model, trace).

    The model must already be pruned. Unlearning runs with masks ignored
    (all parameters trainable); the mask re-asserts after each grow step, and
    a final one-shot prune (in ``mode`` and ``scope``) restores the original
    sparsity. The trace's UA and TA are ``ua_ta``'s.
    """
    config.validate()
    topo = topology(mode, scope)
    trace = UnpruneTrace(initial_sparsity=sparsity_of(model).sparsity)
    with blas_scope():
        for t in range(config.iterations):
            reinit_pruned(
                model, config.init_strategy, rng.split(f"reinit-{t}"),
                config.random_init_std,
            )
            unlearn(model, split, dataset, config.unlearn, rng.split(f"unlearn-{t}"),
                    dense=True)
            grown = topo.grow(model, config.grow_per_iter)
            apply_mask(model)
            ua, ta = ua_ta(model, dataset, split, test_data)
            trace.record(t, sparsity_of(model).sparsity, ua, ta, len(grown))
            trace.grown.append(grown)
        topo.prune(model, config.original_sparsity)
    trace.final_sparsity = sparsity_of(model).sparsity
    return model, trace
