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

from unprune.config import parse_config, parse_key
from unprune.core import topology
from unprune.errors import ConfigError
from unprune.experiment import cell_oracle, cell_unprune, prepare_seed
from unprune.metrics import MaskPair, iom

CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "configs", "reference.ini")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--methods", default="",
                        help="comma-separated unlearning methods "
                             "(default: the config's [unlearn] methods)")
    args = parser.parse_args()

    # The methods are checked with the config, before any model is trained.
    try:
        cfg = parse_config(CONFIG)
        if args.methods:
            methods = parse_key("unlearn", "methods", args.methods)[1]
            cfg = replace(cfg, methods=methods).validate()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    sparsity = cfg.sparsities[0]
    topo = topology(cfg.prune_mode, cfg.scope)
    runs = {seed: prepare_seed(cfg, seed) for seed in cfg.seeds}
    pruned = {seed: topo.prune(run.dense, sparsity)
              for seed, run in runs.items()}
    oracles = {
        seed: cell_oracle(cfg, seed, sparsity, run.train_data, run.split,
                          None)[0]
        for seed, run in runs.items()
    }
    for method in cfg.methods:
        for strategy in ("original", "random"):
            strategy_cfg = replace(cfg, init_strategy=strategy)
            values = []
            for seed, run in runs.items():
                model = pruned[seed].clone()
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
