"""Seeded numeric primitives every other module builds on.

All tensors are plain numpy float64 arrays in row-major order. Randomness
goes through ``SeededRng``, a counter-based (Philox) stream that can be
split into independent named sub-streams, so that e.g. the deletion split,
the weight init and the scrubbing noise never share state.

``_product`` is ``a @ b`` and a finiteness guard, ``_all_finite``, with
no operand checks. ``matmul`` checks its operands and then calls it;
``model``'s forward pass and backward recursion call ``matmul`` unless their
caller passes another product. The two step loops (``train.train_sgd``,
``unlearn._descend``), whose operand shapes cannot change inside the loop,
run the forward products through ``_product`` and the backward products
through bare ``np.matmul``, unguarded: every non-finite backward product
reaches the step's gradient vector, and ``train._FlatStep`` checks that
vector once with ``_all_finite``. Each product runs on one OpenBLAS
thread: the products are small (the largest on the shipped tasks is 800 x
32 x 32), and on two cores a second thread doubled a run's CPU time without
shortening its wall time. OpenBLAS splits a product across threads
by output blocks, never along the reduction, so the result is the same bit
for bit.

The thread count and the floating-point error state are set by
``blas_scope``. The step loops, ``core.unprune`` and ``mia.ratio_sweep``
each open one scope around their loop, so a loop sets the count once and
restores it when the scope exits, however many products it runs; a
``matmul`` outside any scope opens one for its own product. ``_product``
opens none: it runs in its caller's scope.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import math
import os
from contextlib import contextmanager

import numpy as np

from .errors import InputError, NumericError, ShapeError


def round_count(x: float) -> int:
    """Round half up; used for every 'round(fraction * N)' count in the package."""
    return int(np.floor(x + 0.5))


class SeededRng:
    """Deterministic random stream keyed by (seed, stream id).

    Identical (seed, stream) pairs produce bit-identical draw sequences.
    ``split(label)`` derives an independent child stream from a string
    label; the derivation is a pure hash, so split order does not matter.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.stream = int(stream) & 0xFFFFFFFFFFFFFFFF
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def split(self, label: str) -> "SeededRng":
        digest = hashlib.blake2b(
            f"{self.stream}/{label}".encode("utf-8"), digest_size=8
        ).digest()
        return SeededRng(self.seed, int.from_bytes(digest, "little"))

    def normal(self, n: int, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        if std < 0:
            raise InputError(f"std must be >= 0, got {std}")
        return self._gen.normal(loc=mean, scale=std, size=int(n)).astype(np.float64)

    def uniform(self, low: float, high: float, n: int) -> np.ndarray:
        return self._gen.uniform(low, high, size=int(n)).astype(np.float64)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(int(n))

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        return self._gen.choice(int(n), size=int(size), replace=replace)

    def integers(self, low: int, high: int, size: int) -> np.ndarray:
        return self._gen.integers(low, high, size=int(size))

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed}, stream={self.stream})"


def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS.

    Without a bundled OpenBLAS that exports them, a getter that reports one
    thread and a setter that does nothing, so ``matmul`` leaves the BLAS
    as it is.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                               ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return (lambda: 1), (lambda n: None)


_BLAS_THREADS = _openblas_threads()


_scope_open = False  # True while a blas_scope is open


@contextmanager
def blas_scope():
    """One BLAS thread and silent overflow/invalid for the enclosed block.

    The outermost entry reads the BLAS thread count, sets it to 1 and
    enters ``np.errstate(over="ignore", invalid="ignore")``; its exit,
    normal or by a raise, restores both. A nested entry does nothing, so a
    loop that opens a scope pays for the thread calls and the error state
    once, and the products inside it pay for neither. Overflow in the
    block raises no warning; ``_product``'s finiteness guard, the step's
    gradient check and the loss checks turn a non-finite value into
    ``NumericError``. The count is
    process-wide, so scopes opened from several Python threads at once
    could restore it out of order; the package opens none that way.
    """
    global _scope_open
    if _scope_open:
        yield
        return
    get_threads, set_threads = _BLAS_THREADS
    threads = get_threads()
    set_threads(1)
    _scope_open = True
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    finally:
        _scope_open = False
        set_threads(threads)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of two 2-d float64 arrays, on one BLAS thread.

    Checks the operands, then runs ``_product``. Inside a ``blas_scope`` the
    product runs in the scope's thread count and error state; outside one,
    ``matmul`` opens a scope for its own product, so the thread count is put
    back to what it was when the call returns or raises. Either way a
    non-finite product raises ``NumericError``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-d operands, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions disagree: {a.shape} x {b.shape}")
    if _scope_open:
        return _product(a, b)
    with blas_scope():
        return _product(a, b)


def _product(a: np.ndarray, b: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b``, written into ``out`` if given; a non-finite product raises
    ``NumericError``.

    The operands are not checked: the caller passes 2-d float64 arrays that
    agree, and runs the product inside a ``blas_scope``. The guard is
    ``_all_finite`` of the product.
    """
    out = np.matmul(a, b, out=out)
    if not _all_finite(out.reshape(-1)):
        raise NumericError("matmul produced non-finite values")
    return out


def _all_finite(flat: np.ndarray) -> bool:
    """Whether every entry of the 1-d float64 ``flat`` is finite.

    The test is the sum of squares, one BLAS call: it is finite only if
    every entry is, and when finite entries overflow it, ``np.isfinite``
    decides.
    """
    return math.isfinite(flat @ flat) or bool(np.isfinite(flat).all())


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax of a (batch, classes) array.

    The row maxima are taken column by column with ``np.maximum``, which is
    exact for any class count and much faster than ``max(axis=1)`` over a
    few columns. The denominator is numpy's row sum, which adds fewer than
    8 terms one after another and 8 or more in another order.
    ``_cross_entropy_rows`` computes the same values class-major below 8
    classes, where the two sums agree bit for bit.
    """
    z = np.asarray(logits, dtype=np.float64)
    top = z[:, 0].copy()
    for k in range(1, z.shape[1]):
        np.maximum(top, z[:, k], out=top)
    e = z - top[:, None]
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=1)[:, None]
    return e


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean negative log softmax probability of the true class.

    Returns (loss, grad_logits) with grad = (softmax - onehot) / batch, the
    gradient of the mean loss with respect to the logits.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-d, got shape {logits.shape}")
    nll, grad = _cross_entropy_rows(logits, _true_class_index(labels, *logits.shape))
    return _mean_loss(nll), grad


# Below this many classes ``_cross_entropy_rows`` works class-major. Its
# sequential sum over the classes then gives the bits of numpy's row sum,
# which is sequential below 8 terms only.
CLASS_MAJOR_BELOW = 8


def _true_class_index(labels: np.ndarray, batch: int, classes: int) -> np.ndarray:
    """Each row's flat index of its true class in the layout that
    ``_cross_entropy_rows`` works in: (classes, batch) below
    ``CLASS_MAJOR_BELOW`` classes, (batch, classes) from there on.

    Raises unless ``labels`` holds one class in [0, classes) per row.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (batch,):
        raise ShapeError(f"labels must have shape ({batch},), got {labels.shape}")
    if batch < 1:
        raise InputError("batch must contain at least one sample")
    if labels.min() < 0 or labels.max() >= classes:
        raise InputError(f"labels must lie in [0, {classes}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    return _class_index(labels, batch, classes)


def _class_index(labels: np.ndarray, batch: int, classes: int) -> np.ndarray:
    """``_true_class_index`` without its checks, for int64 labels that
    passed them in another order."""
    if classes < CLASS_MAJOR_BELOW:
        return labels * batch + np.arange(batch)
    return np.arange(batch) * classes + labels


def _cross_entropy_rows(
    logits: np.ndarray, true_index: np.ndarray, nll: bool = True
) -> tuple[np.ndarray | None, np.ndarray]:
    """Per-row negative log-likelihoods and the gradient of their mean.

    ``true_index`` comes from ``_true_class_index``. Without ``nll`` the
    likelihoods are not computed and None stands in for them. A row's value
    does not depend on the other rows, so a caller may reorder the rows
    before taking the mean with ``_mean_loss``.

    Below ``CLASS_MAJOR_BELOW`` classes the work runs on a (classes, batch)
    copy of the logits: each class is one contiguous row, so every step is
    one long loop where the row layout makes one short loop per sample.
    The steps and their order are ``softmax``'s: the maxima over the
    classes, the shift, ``exp``, the sum over the classes one after
    another, the division, then the one-hot subtraction and the division
    by the batch, so the values are the same bit for bit. The gradient is
    returned C-contiguous as (batch, classes) in either layout; the BLAS
    products it feeds would round differently on another layout.
    """
    batch, classes = logits.shape
    class_major = classes < CLASS_MAJOR_BELOW
    grad = _softmax_class_major(logits) if class_major else softmax(logits)
    flat = grad.reshape(-1)
    rows_nll = -np.log(np.maximum(flat[true_index], 1e-300)) if nll else None
    flat[true_index] -= 1.0
    if class_major:
        return rows_nll, np.divide(grad.T, batch, out=np.empty((batch, classes)))
    grad /= batch
    return rows_nll, grad


def _softmax_class_major(logits: np.ndarray) -> np.ndarray:
    """``softmax(logits).T`` as a C-contiguous (classes, batch) array,
    computed in that layout with ``softmax``'s steps in ``softmax``'s order.

    The sum over the classes runs one class after another; it equals
    ``softmax``'s row sum below ``CLASS_MAJOR_BELOW`` classes only.
    """
    batch, classes = logits.shape
    top = logits[:, 0].copy()
    for k in range(1, classes):
        np.maximum(top, logits[:, k], out=top)
    e = np.subtract(logits.T, top, out=np.empty((classes, batch)))
    np.exp(e, out=e)
    total = e[0].copy()
    for k in range(1, classes):
        total += e[k]
    e /= total
    return e


def _mean_loss(nll: np.ndarray) -> float:
    loss = float(nll.mean())
    if not np.isfinite(loss):
        raise NumericError("cross-entropy loss is non-finite")
    return loss
