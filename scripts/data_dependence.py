#!/usr/bin/env python3
"""Data dependence of pruned topologies: train+prune on D versus on D_r.

Same seed, same schedule, the reference task of configs/reference.ini with
its deleted rows left out for D_r. Reports the mask overlap (IoU) under both
global and per-layer magnitude thresholds at the configured sparsity.
"""

import argparse
import os
import sys

from unprune.config import parse_config
from unprune.core import topology
from unprune.data import write_csv
from unprune.experiment import prepare_seed
from unprune.metrics import MaskPair, iou
from unprune.oracle import train_model

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
        retained = train_model(None, run.train_data, run.split.retain_indices,
                               cfg.arch_dims(), cfg.train, seed)[0]
        values = {}
        for scope in ("global", "per_layer"):
            topo = topology("unstructured", scope)
            full, retain = run.dense.clone(), retained.clone()
            topo.prune(full, sparsity)
            topo.prune(retain, sparsity)
            values[scope] = iou(MaskPair(topo.kept(full), topo.kept(retain)))
        rows.append((seed, values["global"], values["per_layer"]))
        print(f"seed {seed}: IoU global={values['global']:.4f} "
              f"per_layer={values['per_layer']:.4f}")

    write_csv(args.out, ("seed", "iou_global", "iou_per_layer"), rows)
    print(f"-> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
