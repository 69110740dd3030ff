#!/usr/bin/env python3
"""Time and page-fault count of one full-batch unlearning step.

Runs ``unlearn._descend``, the step loop of finetune and gradient ascent,
at the four step shapes the shipped configs make: finetune on the retained
rows and gradient ascent on the forgotten rows of configs/structured.ini
(2-32-32-2, 720 and 80 rows) and configs/reference.ini (2-64-32-2, 360 and
40 rows). The model is the configured architecture at its seed-0 init and
the rows are the seed-0 deletion split. Each shape is warmed up, then timed
``--repeats`` times over ``--steps`` steps; the script prints the median
microseconds per step and minor page faults per step (``getrusage``).
"""

import argparse
import os
import resource
import statistics
import sys
import time

from unprune.config import parse_config
from unprune.experiment import build_data
from unprune.oracle import build_model
from unprune.unlearn import _descend

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "configs")
SHAPES = (("structured.ini", "finetune"), ("reference.ini", "finetune"),
          ("structured.ini", "gradient_ascent"),
          ("reference.ini", "gradient_ascent"))


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def time_shape(config: str, method: str, steps: int, repeats: int
               ) -> tuple[int, str, float, float]:
    """(rows, dims, median µs per step, median minor faults per step)."""
    cfg = parse_config(os.path.join(CONFIGS, config))
    train, _, split = build_data(cfg, 0)
    model = build_model(cfg.arch_dims(), 0)
    # Finetune descends on the retained rows, gradient ascent ascends on
    # the forgotten rows: a negative rate.
    if method == "finetune":
        role, rows = "retain", split.retain_indices
        rate = cfg.unlearn_config(method).rate
    else:
        role, rows = "forget", split.forget_indices
        rate = -cfg.unlearn_config(method).rate
    _descend(model, train, rows, role, max(steps // 10, 1), rate)
    micros, faults = [], []
    for _ in range(repeats):
        f0, t0 = _minor_faults(), time.perf_counter()
        _descend(model, train, rows, role, steps, rate)
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
