#!/usr/bin/env python3
"""Time and page-fault count of one full-batch training or unlearning step.

Runs ``unlearn._descend``, the step loop of finetune and gradient ascent,
at the four step shapes the shipped configs make: finetune on the retained
rows and gradient ascent on the forgotten rows of configs/structured.ini
(2-32-32-2, 720 and 80 rows) and configs/reference.ini (2-64-32-2, 360 and
40 rows). It then runs ``train.train_sgd`` on all training rows of each
config (800 and 400 rows), where one step is one epoch, and
``mia.ratio_sweep`` at the config's 9 shadow ratios with the forgotten rows
as members and the first 80 test rows as non-members (80 and 40 member
rows), where one step is one sweep. The model is the configured
architecture at its seed-0 init and the rows are the seed-0 deletion split.
Each shape is warmed up, then timed ``--repeats`` times over ``--steps``
steps; the script prints the median microseconds per step and minor page
faults per step (``getrusage``).
"""

import argparse
import os
import resource
import statistics
import sys
import time

import numpy as np

from unprune.config import parse_config
from unprune.experiment import build_data
from unprune.mia import ratio_sweep
from unprune.numeric import SeededRng
from unprune.oracle import build_model
from unprune.train import train_sgd
from unprune.unlearn import _descend

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "configs")
SHAPES = (("structured.ini", "finetune"), ("reference.ini", "finetune"),
          ("structured.ini", "gradient_ascent"),
          ("reference.ini", "gradient_ascent"), ("structured.ini", "train"),
          ("reference.ini", "train"), ("structured.ini", "mia_sweep"),
          ("reference.ini", "mia_sweep"))
MIA_NONMEMBERS = 80


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def time_shape(config: str, method: str, steps: int, repeats: int
               ) -> tuple[int, str, float, float]:
    """(rows, dims, median µs per step, median minor faults per step)."""
    cfg = parse_config(os.path.join(CONFIGS, config))
    train, test, split = build_data(cfg, 0)
    model = build_model(cfg.arch_dims(), 0)
    # Training runs one epoch per step on every training row. Finetune
    # descends on the retained rows, gradient ascent ascends on the
    # forgotten rows: a negative rate. A sweep attacks the forgotten rows.
    if method == "mia_sweep":
        rows = split.forget_indices

        def run(n):
            for _ in range(n):
                ratio_sweep(model, train, rows, test,
                            np.arange(MIA_NONMEMBERS), cfg.mia_ratios,
                            SeededRng(0).split("mia"))
    elif method == "train":
        rows = np.arange(train.n)

        def run(n):
            train_sgd(model, train, rows, n, cfg.train.lr,
                      SeededRng(0).split("train"))
    else:
        if method == "finetune":
            role, rows = "retain", split.retain_indices
            rate = cfg.unlearn_config(method).rate
        else:
            role, rows = "forget", split.forget_indices
            rate = -cfg.unlearn_config(method).rate

        def run(n):
            _descend(model, train, rows, role, n, rate)
    run(max(steps // 10, 1))
    micros, faults = [], []
    for _ in range(repeats):
        f0, t0 = _minor_faults(), time.perf_counter()
        run(steps)
        micros.append((time.perf_counter() - t0) / steps * 1e6)
        faults.append((_minor_faults() - f0) / steps)
    dims = "-".join(str(d) for d in cfg.arch_dims())
    return (len(rows), dims, statistics.median(micros),
            statistics.median(faults))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--steps", type=int, default=300)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    if args.steps < 1 or args.repeats < 1:
        parser.error("--steps and --repeats must be >= 1")

    print(f"{'config':15s} {'method':16s} {'rows':>5s} {'dims':10s} "
          f"{'us/step':>8s} {'faults/step':>11s}")
    for config, method in SHAPES:
        rows, dims, micros, faults = time_shape(config, method, args.steps,
                                                args.repeats)
        print(f"{config:15s} {method:16s} {rows:5d} {dims:10s} "
              f"{micros:8.1f} {faults:11.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
