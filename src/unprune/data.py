"""Datasets and the seeded deletion split into forgotten / retained rows.

Two sources: synthetic Gaussian blobs (hermetic default) and IDX image /
label files (big-endian, the FashionMNIST container format) when real data
is on disk. ``write_csv`` is the one writer of the package's CSV outputs.
"""

from __future__ import annotations

import csv
import struct
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InputError
from .numeric import SeededRng, round_count

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

_BLOB_RADIUS = 1.0  # class means sit on a circle of this radius


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray            # (n, d) float64, finite
    labels: np.ndarray            # (n,) int64, each < num_classes
    num_classes: int
    name: str
    image_shape: tuple[int, int] | None = None

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)
        if inputs.ndim != 2 or inputs.shape[0] < 1:
            raise InputError(f"inputs must be (n>=1, d), got {inputs.shape}")
        if labels.shape != (inputs.shape[0],):
            raise InputError("labels length must match input rows")
        if not np.all(np.isfinite(inputs)):
            raise InputError("inputs contain non-finite values")
        if labels.min() < 0 or labels.max() >= self.num_classes:
            raise InputError("labels must lie in [0, num_classes)")
        inputs.flags.writeable = False
        labels.flags.writeable = False

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True)
class DeletionSplit:
    forget_indices: np.ndarray    # sorted row indices of D_f
    retain_indices: np.ndarray    # sorted row indices of D_r

    def __post_init__(self):
        f = np.asarray(self.forget_indices, dtype=np.int64)
        r = np.asarray(self.retain_indices, dtype=np.int64)
        object.__setattr__(self, "forget_indices", np.sort(f))
        object.__setattr__(self, "retain_indices", np.sort(r))
        self.forget_indices.flags.writeable = False
        self.retain_indices.flags.writeable = False


def _blob_means(classes: int, dim: int) -> np.ndarray:
    """Deterministic, pairwise-distinct cluster means (independent of rng).

    The circle is phase-shifted so no class boundary aligns with an input
    axis; axis-aligned geometry would make one input component globally
    uninformative.
    """
    means = np.zeros((classes, dim), dtype=np.float64)
    if dim == 1:
        means[:, 0] = 2.0 * _BLOB_RADIUS * np.arange(classes)
    else:
        angles = 2.0 * np.pi * np.arange(classes) / classes + np.pi / 4.0
        means[:, 0] = _BLOB_RADIUS * np.cos(angles)
        means[:, 1] = _BLOB_RADIUS * np.sin(angles)
    return means


def gen_blobs(
    rng: SeededRng,
    n_per_class: int,
    classes: int,
    dim: int,
    spread: float,
    name: str = "blobs",
) -> Dataset:
    """Gaussian clusters around fixed distinct means; labels are cluster ids."""
    if n_per_class < 1 or classes < 1 or dim < 1:
        raise InputError("n_per_class, classes and dim must all be >= 1")
    if spread <= 0:
        raise InputError(f"spread must be > 0, got {spread}")
    means = _blob_means(classes, dim)
    n = n_per_class * classes
    noise = rng.normal(n * dim, 0.0, spread).reshape(n, dim)
    inputs = np.repeat(means, n_per_class, axis=0) + noise
    labels = np.repeat(np.arange(classes, dtype=np.int64), n_per_class)
    return Dataset(inputs=inputs, labels=labels, num_classes=classes, name=name)


def _read_be32(raw: bytes, offset: int, path: str) -> int:
    if offset + 4 > len(raw):
        raise FormatError(f"{path}: truncated at byte {offset} (need 4 more bytes)")
    return struct.unpack_from(">I", raw, offset)[0]


def load_idx(images_path: str, labels_path: str, name: str | None = None) -> Dataset:
    """Load an IDX image/label file pair; pixels are scaled to [0, 1]."""
    with open(images_path, "rb") as fh:
        raw = fh.read()
    magic = _read_be32(raw, 0, images_path)
    if magic != IDX_IMAGES_MAGIC:
        raise FormatError(
            f"{images_path}: bad images magic 0x{magic:08x} at byte 0 "
            f"(expected 0x{IDX_IMAGES_MAGIC:08x})"
        )
    n = _read_be32(raw, 4, images_path)
    rows = _read_be32(raw, 8, images_path)
    cols = _read_be32(raw, 12, images_path)
    need = 16 + n * rows * cols
    if len(raw) < need:
        raise FormatError(f"{images_path}: truncated at byte {len(raw)} "
                          f"(expected {need} bytes)")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=n * rows * cols, offset=16)
    inputs = pixels.reshape(n, rows * cols).astype(np.float64) / 255.0

    with open(labels_path, "rb") as fh:
        raw_l = fh.read()
    magic_l = _read_be32(raw_l, 0, labels_path)
    if magic_l != IDX_LABELS_MAGIC:
        raise FormatError(
            f"{labels_path}: bad labels magic 0x{magic_l:08x} at byte 0 "
            f"(expected 0x{IDX_LABELS_MAGIC:08x})"
        )
    n_l = _read_be32(raw_l, 4, labels_path)
    if n_l != n:
        raise FormatError(
            f"{labels_path}: label count {n_l} at byte 4 does not match "
            f"image count {n}"
        )
    if len(raw_l) < 8 + n_l:
        raise FormatError(f"{labels_path}: truncated at byte {len(raw_l)} "
                          f"(expected {8 + n_l} bytes)")
    labels = np.frombuffer(raw_l, dtype=np.uint8, count=n_l, offset=8).astype(np.int64)
    num_classes = int(labels.max()) + 1 if n_l else 1
    return Dataset(
        inputs=inputs,
        labels=labels,
        num_classes=num_classes,
        name=name or "idx",
        image_shape=(rows, cols),
    )


def write_idx(dataset: Dataset, images_path: str, labels_path: str) -> None:
    """Inverse of load_idx; values must lie in [0, 1] and quantize to bytes."""
    if dataset.inputs.min() < 0.0 or dataset.inputs.max() > 1.0:
        raise InputError("write_idx requires input values in [0, 1]")
    rows, cols = dataset.image_shape or (1, dataset.dim)
    if rows * cols != dataset.dim:
        raise InputError("image_shape does not factor the input dimension")
    pixels = np.floor(dataset.inputs * 255.0 + 0.5).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, dataset.n, rows, cols))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, dataset.n))
        fh.write(dataset.labels.astype(np.uint8).tobytes())


def write_csv(path: str, header: Sequence[str],
              rows: Iterable[Sequence]) -> None:
    """Every CSV the package writes: ``header``, then ``rows``, with Unix
    line ends and floats printed to 10 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [f"{v:.10g}" if isinstance(v, (float, np.floating)) else v
             for v in row] for row in rows)


def split_delete(
    dataset: Dataset,
    ratio: float,
    rng: SeededRng,
    target_class: int | None = None,
) -> DeletionSplit:
    """Partition row indices into forgotten and retained sets.

    Default selection is uniform without replacement. ``target_class``
    restricts the forgotten rows to one class (an extension used for
    accuracy-contrast experiments).
    """
    if not 0.0 < ratio < 1.0:
        raise InputError(f"delete ratio must lie in (0, 1), got {ratio}")
    n = dataset.n
    k = round_count(ratio * n)
    if k < 1 or n - k < 1:
        raise InputError(f"ratio {ratio} leaves an empty forget or retain set "
                         f"for n={n}")
    if target_class is None:
        forget = np.sort(rng.choice(n, k, replace=False))
    else:
        pool = np.flatnonzero(dataset.labels == target_class)
        if k > len(pool):
            raise InputError(
                f"cannot delete {k} rows from class {target_class} "
                f"({len(pool)} available)"
            )
        forget = np.sort(pool[rng.choice(len(pool), k, replace=False)])
    mask = np.ones(n, dtype=bool)
    mask[forget] = False
    retain = np.flatnonzero(mask)
    return DeletionSplit(forget_indices=forget, retain_indices=retain)
