#!/usr/bin/env python3
"""Original versus random re-initialization inside the un-pruning loop.

Reports the mean mask overlap with the retrain+reprune oracle for both
strategies, per unlearning method, on the reference task of
configs/reference.ini.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from unprune.config import parse_config
from unprune.core import topology
from unprune.experiment import cell_oracle, cell_unprune, prepare_seed
from unprune.metrics import MaskPair, iom

CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "configs", "reference.ini")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--methods", default="gradient_ascent,finetune")
    args = parser.parse_args()

    cfg = parse_config(CONFIG)
    sparsity = cfg.sparsities[0]
    runs = {seed: prepare_seed(cfg, seed) for seed in cfg.seeds}
    oracles = {
        seed: cell_oracle(cfg, seed, sparsity, run.train_data, run.split,
                          None)[0]
        for seed, run in runs.items()
    }
    topo = topology(cfg.prune_mode, cfg.scope)
    for method in args.methods.split(","):
        for strategy in ("original", "random"):
            strategy_cfg = replace(cfg, init_strategy=strategy)
            values = []
            for seed, run in runs.items():
                model = run.pruned[sparsity].clone()
                cell_unprune(strategy_cfg, seed, sparsity, method, model,
                             run.train_data, run.test_data, run.split)
                values.append(iom(MaskPair(topo.kept(model),
                                           topo.kept(oracles[seed]))))
            print(f"{method:16s} init={strategy:8s} "
                  f"mean IoM={np.mean(values):.4f} "
                  f"per-seed {['%.4f' % v for v in values]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
