"""Masked multilayer perceptron: weights, binary masks, and the saved init.

A pruned weight is a stored 0: ``prune_*`` and ``apply_mask`` zero every
weight whose mask bit is 0, and ``load_snapshot`` rejects a file that
breaks the rule. The forward and backward passes read the stored weights,
and gradients are of the stored weights, pruned entries included. Training
re-applies the mask after every step, so it keeps a pruned weight at 0 and
never moves the topology; the un-pruning loop re-initializes the pruned
weights before it unlearns and re-asserts the mask after it grows.

Biases are never masked; sparsity accounting covers weight entries only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, InputError, ShapeError
from .numeric import (
    SeededRng,
    _cross_entropy_rows,
    _true_class_index,
    matmul,
    softmax_cross_entropy,
)

ACTIVATIONS = ("relu", "none")

SNAPSHOT_MAGIC = "unprune-model 1"
_HEADER_END = b"end-header\n"


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str = "relu"

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise InputError(f"layer dims must be positive, got {self}")
        if self.activation not in ACTIVATIONS:
            raise InputError(f"unknown activation {self.activation!r}")


def mlp_specs(dims: list[int]) -> list[LayerSpec]:
    """Fully connected specs from a dim chain like [2, 64, 32, 2].

    All layers use relu except the last, which emits raw logits.
    """
    if len(dims) < 2:
        raise InputError("need at least an input and an output dimension")
    specs = []
    for i in range(len(dims) - 1):
        act = "none" if i == len(dims) - 2 else "relu"
        specs.append(LayerSpec(dims[i], dims[i + 1], act))
    return specs


@dataclass
class GradientSet:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


@dataclass
class MaskedModel:
    layers: list[LayerSpec]
    weights: list[np.ndarray]        # per layer, (out, in)
    biases: list[np.ndarray]         # per layer, (out,)
    masks: list[np.ndarray]          # per layer, (out, in), entries in {0, 1}
    init_snapshot: list[np.ndarray]  # per layer, (out, in); weights at init
    seed: int

    @property
    def num_weights(self) -> int:
        return sum(w.size for w in self.weights)

    @property
    def dims(self) -> list[int]:
        return [self.layers[0].in_dim] + [s.out_dim for s in self.layers]

    def clone(self) -> "MaskedModel":
        return MaskedModel(
            layers=list(self.layers),
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            masks=[m.copy() for m in self.masks],
            init_snapshot=[s.copy() for s in self.init_snapshot],
            seed=self.seed,
        )

    def flat_masks(self) -> np.ndarray:
        return np.concatenate([m.ravel() for m in self.masks])

    def flat_weights(self) -> np.ndarray:
        return np.concatenate([w.ravel() for w in self.weights])


def init_model(specs: list[LayerSpec], rng: SeededRng) -> MaskedModel:
    """Kaiming-uniform weights, zero biases, all-ones masks, snapshotted init.

    Weight bound is 1/sqrt(fan_in), the standard linear-layer default
    (kaiming-uniform with a=sqrt(5)).
    """
    if not specs:
        raise InputError("need at least one layer")
    for a, b in zip(specs, specs[1:]):
        if a.out_dim != b.in_dim:
            raise InputError(f"dim chain mismatch: {a.out_dim} -> {b.in_dim}")
    if specs[-1].activation != "none":
        raise InputError("last layer must emit raw logits (activation 'none')")
    weights, biases, masks = [], [], []
    for i, spec in enumerate(specs):
        bound = 1.0 / np.sqrt(spec.in_dim)
        w = rng.split(f"layer{i}").uniform(-bound, bound, spec.out_dim * spec.in_dim)
        weights.append(w.reshape(spec.out_dim, spec.in_dim))
        biases.append(np.zeros(spec.out_dim, dtype=np.float64))
        masks.append(np.ones((spec.out_dim, spec.in_dim), dtype=np.float64))
    return MaskedModel(
        layers=list(specs),
        weights=weights,
        biases=biases,
        masks=masks,
        init_snapshot=[w.copy() for w in weights],
        seed=rng.seed,
    )


def _forward_trace(
    model: MaskedModel, inputs: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Returns (per-layer activations incl. input, per-layer pre-activations)."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.layers[0].in_dim:
        raise ShapeError(
            f"inputs must be (batch, {model.layers[0].in_dim}), got {x.shape}"
        )
    acts = [x]
    pre = []
    for spec, w, b in zip(model.layers, model.weights, model.biases):
        z = matmul(acts[-1], w.T)
        z += b
        pre.append(z)
        acts.append(np.maximum(z, 0.0) if spec.activation == "relu" else z)
    return acts, pre


def forward(model: MaskedModel, inputs: np.ndarray) -> np.ndarray:
    """Logits of the model for a batch of inputs."""
    return _forward_trace(model, inputs)[0][-1]


def backward(
    model: MaskedModel,
    inputs: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, GradientSet]:
    """Mean cross-entropy loss and its gradient w.r.t. the stored weights
    and biases, pruned entries included.

    A step loop uses a ``GradientStep``, which runs the same functions.
    """
    trace = _forward_trace(model, inputs)
    loss, delta = softmax_cross_entropy(trace[0][-1], labels)
    return loss, _backward_from_trace(model, trace, delta)


def _backward_from_trace(model: MaskedModel, trace,
                         delta: np.ndarray) -> GradientSet:
    """Parameter gradients from a ``_forward_trace`` and the logit gradient."""
    acts, pre = trace
    g_w = [None] * len(model.layers)
    g_b = [None] * len(model.layers)
    for l, d in _layer_deltas(model, pre, delta):
        g_w[l] = matmul(d.T, acts[l])
        g_b[l] = d.sum(axis=0)
    return GradientSet(weights=g_w, biases=g_b)


def _layer_deltas(model: MaskedModel, pre: list[np.ndarray],
                  delta: np.ndarray):
    """Yield ``(l, delta)`` from the last layer down: the ReLU recursion.

    ``delta`` is the loss gradient at layer ``l``'s pre-activation; the caller
    uses it before the next is made, so matmuls run dW(L-1), dX(L-1), ...
    ``pre`` comes from the ``_forward_trace`` of the batch, and the recursion
    reads the live ``model.weights``: they must not change between the two.
    """
    for l in range(len(model.layers) - 1, -1, -1):
        yield l, delta
        if l > 0:
            delta = matmul(delta, model.weights[l])
            if model.layers[l - 1].activation == "relu":
                delta *= pre[l - 1] > 0.0


class GradientStep:
    """``backward`` for a step loop, split into its forward pass, loss
    gradient and backward pass.

    A step loop (one training run, one unlearning run) makes one and calls
    ``forward``, ``loss_gradient`` and ``backward`` (or ``gradients``) on
    every step. They run the functions ``backward`` runs, so the bits are
    the same, but the loss is computed only when asked for, and a labels
    array that repeats is checked once. ``backward`` reads the live weights,
    so nothing may change them between a step's ``forward`` and its
    ``backward``; ``sgd_step`` runs after both.
    """

    def __init__(self):
        self._trace = None
        self._delta = None
        self._labels = None
        self._true_index = None

    def forward(self, model: MaskedModel, inputs: np.ndarray) -> np.ndarray:
        """The batch's logits; the trace is kept for ``backward``."""
        self._trace = _forward_trace(model, inputs)
        return self._trace[0][-1]

    def loss_gradient(self, labels: np.ndarray, nll: bool = False):
        """The logit gradient of the last forward batch's mean loss.

        Returns the per-row negative log-likelihoods with ``nll``, else None.
        ``labels`` are checked once per array object: a step loop that
        passes the same batch again does not check it again.
        """
        logits = self._trace[0][-1]
        if labels is not self._labels or len(self._true_index) != len(logits):
            self._true_index = _true_class_index(labels, *logits.shape)
            self._labels = labels
        rows_nll, self._delta = _cross_entropy_rows(logits, self._true_index, nll)
        return rows_nll

    def backward(self, model: MaskedModel) -> GradientSet:
        """Parameter gradients of the last ``loss_gradient``."""
        return _backward_from_trace(model, self._trace, self._delta)

    def gradients(self, model: MaskedModel, inputs: np.ndarray,
                  labels: np.ndarray) -> GradientSet:
        """One batch's forward, loss gradient and backward."""
        self.forward(model, inputs)
        self.loss_gradient(labels)
        return self.backward(model)


def apply_mask(model: MaskedModel) -> MaskedModel:
    """Hard-zero the weights at masked positions, in place."""
    for w, m in zip(model.weights, model.masks):
        w *= m
    return model


def save_snapshot(model: MaskedModel, path: str,
                  extra: dict[str, str] | None = None) -> None:
    """Write the documented snapshot format: text header + raw float64 blocks.

    Header lines are ``key=value``; blocks follow ``end-header`` in layer
    order, little-endian float64, one weights/bias/mask/init quadruple per
    layer (weights and init row-major). ``extra`` appends header lines that
    ``load_snapshot`` skips and ``snapshot_header`` returns.
    """
    from .prune import sparsity_of  # local import to avoid a cycle

    header = [
        SNAPSHOT_MAGIC,
        f"seed={model.seed}",
        "dims=" + ",".join(str(d) for d in model.dims),
        "activations=" + ",".join(s.activation for s in model.layers),
        f"sparsity={sparsity_of(model).sparsity:.6f}",
        "blocks=weights,bias,mask,init per layer; float64 little-endian",
    ]
    header += [f"{key}={value}" for key, value in (extra or {}).items()]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        fh.write(_HEADER_END)
        for w, b, m, s in zip(
            model.weights, model.biases, model.masks, model.init_snapshot
        ):
            fh.write(w.astype("<f8").tobytes())
            fh.write(b.astype("<f8").tobytes())
            fh.write(m.astype("<f8").tobytes())
            fh.write(s.astype("<f8").tobytes())


def _header_uint(text: str, key: str, path: str) -> int:
    # 20 digits hold any 64-bit seed; longer text would also hit int()'s limit.
    if not text.isdigit() or len(text) > 20:
        raise FormatError(
            f"{path}: {key} entry {text!r} is not a non-negative integer"
        )
    return int(text)


def _read_header(path: str) -> tuple[dict[str, str], bytes]:
    """A snapshot file's ``key=value`` header fields and the bytes after it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    end = raw.find(_HEADER_END)
    if end < 0:
        raise FormatError(f"{path}: missing end-header marker")
    if not raw[:end].isascii():
        raise FormatError(f"{path}: header is not ASCII")
    lines = raw[:end].decode("ascii").splitlines()
    if not lines or lines[0] != SNAPSHOT_MAGIC:
        raise FormatError(f"{path}: bad snapshot magic line")
    fields = dict(line.split("=", 1) for line in lines[1:] if "=" in line)
    return fields, raw[end + len(_HEADER_END):]


def snapshot_header(path: str) -> dict[str, str]:
    """The ``key=value`` header fields of a snapshot file, blocks unchecked."""
    return _read_header(path)[0]


def load_snapshot(path: str) -> MaskedModel:
    """Read a ``save_snapshot`` file; any deviation raises ``FormatError``,
    a nonzero weight where its mask is 0 included."""
    fields, blob = _read_header(path)
    for key in ("seed", "dims", "activations"):
        if key not in fields:
            raise FormatError(f"{path}: header has no {key}= line")
    seed = _header_uint(fields["seed"], "seed", path)
    dims = [_header_uint(d, "dims", path) for d in fields["dims"].split(",")]
    activations = fields["activations"].split(",")
    if len(dims) < 2 or len(activations) != len(dims) - 1:
        raise FormatError(f"{path}: {len(dims)} dims need {len(dims) - 1} >= 1 "
                          f"activations, got {len(activations)}")
    try:
        specs = [LayerSpec(dims[i], dims[i + 1], activations[i])
                 for i in range(len(dims) - 1)]
    except InputError as exc:
        raise FormatError(f"{path}: bad layer in header: {exc}") from None
    offset = 0
    weights, biases, masks, snap = [], [], [], []

    def take(count, shape):
        nonlocal offset
        nbytes = count * 8
        if offset + nbytes > len(blob):
            raise FormatError(f"{path}: truncated block at byte {offset}")
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        offset += nbytes
        return arr.reshape(shape).copy()

    for spec in specs:
        weights.append(take(spec.out_dim * spec.in_dim, (spec.out_dim, spec.in_dim)))
        biases.append(take(spec.out_dim, (spec.out_dim,)))
        masks.append(take(spec.out_dim * spec.in_dim, (spec.out_dim, spec.in_dim)))
        snap.append(take(spec.out_dim * spec.in_dim, (spec.out_dim, spec.in_dim)))
    if offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - offset} trailing bytes after "
                          f"the last block")
    for l, (w, m) in enumerate(zip(weights, masks)):
        if not ((m == 0.0) | (m == 1.0)).all():
            raise FormatError(f"{path}: layer {l} mask has entries outside {{0, 1}}")
        if (w[m == 0.0] != 0.0).any():
            raise FormatError(f"{path}: layer {l} has a nonzero pruned weight")
    return MaskedModel(
        layers=specs,
        weights=weights,
        biases=biases,
        masks=masks,
        init_snapshot=snap,
        seed=seed,
    )
