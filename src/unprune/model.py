"""Masked ReLU MLP: weights, binary masks, and the saved init.

The weight shapes are the architecture: every layer but the last applies
ReLU, and the last emits raw logits.

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

import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InputError, ShapeError
from .numeric import SeededRng, matmul, softmax_cross_entropy

SNAPSHOT_MAGIC = "unprune-model 1"
_HEADER_END = b"end-header\n"


@dataclass
class GradientSet:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


@dataclass
class MaskedModel:
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
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    def clone(self) -> "MaskedModel":
        return MaskedModel(
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


def _dims_fault(dims: list[int]) -> str:
    """Why ``dims`` is not a chain of two or more positive widths, or ""."""
    if len(dims) < 2 or min(dims) < 1:
        return f"dims must be two or more positive widths, got {list(dims)}"
    return ""


def init_model(dims: list[int], rng: SeededRng) -> MaskedModel:
    """Kaiming-uniform weights, zero biases, all-ones masks, snapshotted init,
    for the dim chain ``dims`` like [2, 64, 32, 2].

    Weight bound is 1/sqrt(fan_in), the standard linear-layer default
    (kaiming-uniform with a=sqrt(5)).
    """
    fault = _dims_fault(dims)
    if fault:
        raise InputError(fault)
    weights, biases, masks = [], [], []
    for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.split(f"layer{i}").uniform(-bound, bound, fan_out * fan_in)
        weights.append(w.reshape(fan_out, fan_in))
        biases.append(np.zeros(fan_out, dtype=np.float64))
        masks.append(np.ones((fan_out, fan_in), dtype=np.float64))
    return MaskedModel(weights=weights, biases=biases, masks=masks,
                       init_snapshot=[w.copy() for w in weights], seed=rng.seed)


def _forward_trace(model: MaskedModel, inputs: np.ndarray
                   ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Returns (per-layer activations incl. input, per-hidden-layer ReLU masks).

    A hidden layer's mask is its boolean ``z > 0`` on the pre-activation
    ``z``, taken once; the layer then applies ReLU in ``z`` itself, so its
    activation is the only (batch, width) array it allocates. The last
    layer's ``z`` is the logits.
    """
    x = np.asarray(inputs, dtype=np.float64)
    width = model.weights[0].shape[1]
    if x.ndim != 2 or x.shape[1] != width:
        raise ShapeError(f"inputs must be (batch, {width}), got {x.shape}")
    acts = [x]
    masks = []
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = matmul(acts[-1], w.T)
        z += b
        if l < last:
            masks.append(z > 0.0)
            np.maximum(z, 0.0, out=z)
        acts.append(z)
    return acts, masks


def forward(model: MaskedModel, inputs: np.ndarray) -> np.ndarray:
    """Logits of the model for a batch of inputs."""
    return _forward_trace(model, inputs)[0][-1]


def backward(
    model: MaskedModel,
    inputs: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, GradientSet]:
    """Mean cross-entropy loss and its gradient w.r.t. the stored weights
    and biases, pruned entries included."""
    trace = _forward_trace(model, inputs)
    loss, delta = softmax_cross_entropy(trace[0][-1], labels)
    return loss, _backward_from_trace(model, trace, delta)


def _backward_from_trace(model: MaskedModel, trace,
                         delta: np.ndarray) -> GradientSet:
    """Parameter gradients from a ``_forward_trace`` and the logit gradient.

    A bias gradient is the column sum of its layer's delta. ``einsum`` adds
    the rows in the order ``sum(axis=0)`` does, at less cost, for two or
    more columns; over one column ``sum`` adds pairwise, so a width-1 layer
    keeps it.
    """
    acts, masks = trace
    g_w = [None] * len(model.weights)
    g_b = [None] * len(model.weights)
    for l, d in _layer_deltas(model, masks, delta):
        g_w[l] = matmul(d.T, acts[l])
        g_b[l] = np.einsum("ij->j", d) if d.shape[1] > 1 else d.sum(axis=0)
    return GradientSet(weights=g_w, biases=g_b)


def _layer_deltas(model: MaskedModel, masks: list[np.ndarray],
                  delta: np.ndarray):
    """Yield ``(l, delta)`` from the last layer down: the ReLU recursion.

    ``delta`` is the loss gradient at layer ``l``'s pre-activation; the caller
    uses it before the next is made, so matmuls run dW(L-1), dX(L-1), ...
    ``masks`` come from the ``_forward_trace`` of the batch, and the recursion
    reads the live ``model.weights``: they must not change between the two.
    """
    for l in range(len(model.weights) - 1, -1, -1):
        yield l, delta
        if l > 0:
            delta = matmul(delta, model.weights[l])
            delta *= masks[l - 1]


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
    ``load_snapshot`` skips and ``snapshot_header`` returns. A model that
    ``load_snapshot`` would reject (a mask entry outside {0, 1}, a nonzero
    pruned weight) raises ``InputError`` before the file is opened.
    """
    from .prune import sparsity_of  # local import to avoid a cycle

    fault = _mask_fault(model.weights, model.masks)
    if fault:
        raise InputError(f"cannot save {path}: {fault}")
    header = [
        SNAPSHOT_MAGIC,
        f"seed={model.seed}",
        "dims=" + ",".join(str(d) for d in model.dims),
        "activations=" + _activations(len(model.weights)),
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


def _activations(layers: int) -> str:
    """The one ``activations`` entry a snapshot of ``layers`` layers has:
    ReLU on every layer but the logits."""
    return ",".join(["relu"] * (layers - 1) + ["none"])


def _mask_fault(weights: list[np.ndarray], masks: list[np.ndarray]) -> str:
    """How the first bad layer breaks the rule that a mask is binary and a
    pruned weight a stored 0, or "" if no layer does."""
    for l, (w, m) in enumerate(zip(weights, masks)):
        if not ((m == 0.0) | (m == 1.0)).all():
            return f"layer {l} mask has entries outside {{0, 1}}"
        if (w[m == 0.0] != 0.0).any():
            return f"layer {l} has a nonzero pruned weight"
    return ""


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
    fault = _dims_fault(dims)
    if fault:
        raise FormatError(f"{path}: {fault}")
    expected = _activations(len(dims) - 1)
    if fields["activations"] != expected:
        raise FormatError(f"{path}: activations entry "
                          f"{fields['activations']!r} is not {expected!r}")
    offset = 0
    weights, biases, masks, snap = [], [], [], []

    def take(*shape):
        nonlocal offset
        count = math.prod(shape)
        if offset + 8 * count > len(blob):
            raise FormatError(f"{path}: truncated block at byte {offset}")
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        offset += 8 * count
        return arr.reshape(shape).copy()

    for fan_in, fan_out in zip(dims, dims[1:]):
        weights.append(take(fan_out, fan_in))
        biases.append(take(fan_out))
        masks.append(take(fan_out, fan_in))
        snap.append(take(fan_out, fan_in))
    if offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - offset} trailing bytes after "
                          f"the last block")
    fault = _mask_fault(weights, masks)
    if fault:
        raise FormatError(f"{path}: {fault}")
    return MaskedModel(weights=weights, biases=biases, masks=masks,
                       init_snapshot=snap, seed=seed)
