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
from unprune.core import unprune
from unprune.experiment import prepare_seed
from unprune.metrics import MaskPair, iom
from unprune.numeric import SeededRng
from unprune.oracle import retrain_reprune

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
        seed: retrain_reprune(run.train_data, run.split, cfg.arch_dims(),
                              cfg.train, sparsity, seed, cfg.prune_mode,
                              cfg.scope)[0]
        for seed, run in runs.items()
    }
    for method in args.methods.split(","):
        for strategy in ("original", "random"):
            unprune_cfg = replace(cfg, init_strategy=strategy).unprune_config(
                method, sparsity)
            values = []
            for seed, run in runs.items():
                model = run.pruned[sparsity].clone()
                model, _ = unprune(model, run.train_data, run.split,
                                   unprune_cfg,
                                   SeededRng(seed).split(f"unprune/{method}"),
                                   mode=cfg.prune_mode,
                                   test_data=run.test_data, scope=cfg.scope)
                values.append(iom(MaskPair.from_models(model, oracles[seed])))
            print(f"{method:16s} init={strategy:8s} "
                  f"mean IoM={np.mean(values):.4f} "
                  f"per-seed {['%.4f' % v for v in values]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
