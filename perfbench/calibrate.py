"""A fixed reference kernel that measures the machine's current speed.

The machine the benchmark runs on is shared: other tenants slow every timing
of a run together, by up to a third, and the level drifts over minutes. A
set-up sample is one timing, not the fastest of repeats, so it carries that
level in full. The kernel below does a fixed amount of the kind of work the
package spends its time on, in the same process, so it meets the same
slowdown: full-batch training steps of a masked 2-64-32-2 ReLU network with
softmax cross-entropy, in float64 through numpy and the same BLAS (a frozen
copy of what ``train.train_sgd`` does per step). It lives in the benchmark,
not in the package, so a change to the package does not move it.

The benchmark takes a block of samples before and after every set-up sample
and scales the sample by the nominal kernel time over the median kernel
time around it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

DIMS = (2, 64, 32, 2)
ROWS = 400
STEPS = 10          # steps per sample: ~4-8 ms on a 2-vCPU Xeon VM
LR = 0.05
BLOCK = 8           # samples per block
MARGIN_S = 0.5      # blocks within this of an interval calibrate it
# Median sample on a 2-vCPU Xeon VM (numpy 2.4, OpenBLAS 0.3.31, 2 BLAS
# threads); scaled times are seconds at this speed.
NOMINAL_S = 0.0065


def _matmul(a, b):
    out = a @ b
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("calibration kernel diverged")
    return out


class Calibration:
    """The reference kernel's state and its timed samples."""

    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.x = rng.standard_normal((ROWS, DIMS[0]))
        self.y = (self.x[:, 0] + self.x[:, 1] > 0).astype(np.int64)
        self.w0 = [rng.standard_normal((o, i)) * np.sqrt(2.0 / i)
                   for i, o in zip(DIMS, DIMS[1:])]
        self.b0 = [np.zeros(o) for o in DIMS[1:]]
        self.masks = [(rng.random((o, i)) > 0.3).astype(np.float64)
                      for i, o in zip(DIMS, DIMS[1:])]
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def _steps(self) -> float:
        w = [a.copy() for a in self.w0]
        b = [a.copy() for a in self.b0]
        rng = np.random.default_rng(1)
        rows = np.arange(ROWS)
        loss = 0.0
        for _ in range(STEPS):
            order = rng.permutation(ROWS)
            x, y = self.x[order], self.y[order]
            acts, pre = [x], []
            for l, (wl, bl) in enumerate(zip(w, b)):
                z = _matmul(acts[-1], (wl * self.masks[l]).T) + bl
                pre.append(z)
                acts.append(np.maximum(z, 0.0) if l < len(w) - 1 else z)
            logits = acts[-1]
            p = np.exp(logits - logits.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            loss = float(-np.log(p[rows, y] + 1e-12).mean())
            delta = p
            delta[rows, y] -= 1.0
            delta /= ROWS
            for l in range(len(w) - 1, -1, -1):
                gw = _matmul(delta.T, acts[l]) * self.masks[l]
                gb = delta.sum(axis=0)
                if l > 0:
                    delta = _matmul(delta, w[l] * self.masks[l])
                    delta = delta * (pre[l - 1] > 0.0)
                w[l] -= LR * gw
                b[l] -= LR * gb
            for wl, m in zip(w, self.masks):
                wl *= m
        return loss

    def block(self) -> None:
        """Time one block of samples."""
        for _ in range(BLOCK):
            t0 = perf_counter()
            self._steps()
            self.samples.append((t0, perf_counter() - t0))

    def scale(self, start: float, seconds: float) -> float:
        """Nominal over the median sample of the blocks around an interval.

        Below 1 when the machine ran slow; times the interval's length it
        gives the length at the nominal speed.
        """
        lo, hi = start - MARGIN_S, start + seconds + MARGIN_S
        near = [d for t, d in self.samples if lo <= t <= hi]
        return NOMINAL_S / statistics.median(near)
