#!/usr/bin/env python3
"""Data dependence of pruned topologies: train+prune on D versus on D_r.

Same seed, same schedule, the reference task of configs/reference.ini with
its deleted rows left out for D_r. Reports the mask overlap (IoU) under both
global and per-layer magnitude thresholds at the configured sparsity.
"""

import argparse
import csv
import os
import sys

from unprune.config import parse_config
from unprune.experiment import prepare_seed
from unprune.metrics import MaskPair, iou
from unprune.numeric import SeededRng
from unprune.oracle import build_model
from unprune.prune import prune_magnitude
from unprune.train import train_with_cfg

CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "configs", "reference.ini")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="data_dependence.csv")
    args = parser.parse_args()

    cfg = parse_config(CONFIG)
    sparsity = cfg.sparsities[0]
    rows = []
    for seed in cfg.seeds:
        run = prepare_seed(cfg, seed)
        # Same init and shuffle stream as the full-data model.
        retained = build_model(cfg.arch_dims(), seed)
        train_with_cfg(retained, run.train_data, run.split.retain_indices,
                       cfg.train, SeededRng(seed).split("train"))
        values = {}
        for scope in ("global", "per_layer"):
            full, retain = run.dense.clone(), retained.clone()
            prune_magnitude(full, sparsity, scope=scope)
            prune_magnitude(retain, sparsity, scope=scope)
            values[scope] = iou(MaskPair.from_models(full, retain))
        rows.append((seed, values["global"], values["per_layer"]))
        print(f"seed {seed}: IoU global={values['global']:.4f} "
              f"per_layer={values['per_layer']:.4f}")

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["seed", "iou_global", "iou_per_layer"])
        for seed, g, p in rows:
            writer.writerow([seed, f"{g:.10g}", f"{p:.10g}"])
    print(f"-> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
