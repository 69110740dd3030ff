"""Shared fixtures: the reference runs and oracles are expensive, build once.

The two reference tasks are the shipped configs: configs/reference.ini
(unstructured) and configs/structured.ini (whole-neuron masks).
"""

import os

import pytest

from unprune.config import parse_config
from unprune.experiment import prepare_seed
from unprune.numeric import SeededRng
from unprune.oracle import build_model, retrain_reprune
from unprune.prune import prune_magnitude
from unprune.train import train_with_cfg

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "configs")


@pytest.fixture(scope="session")
def ref_cfg():
    return parse_config(os.path.join(CONFIGS, "reference.ini"))


@pytest.fixture(scope="session")
def struct_cfg():
    return parse_config(os.path.join(CONFIGS, "structured.ini"))


@pytest.fixture(scope="session")
def ref_runs(ref_cfg):
    """Trained+pruned unstructured reference models, one per seed."""
    return {seed: prepare_seed(ref_cfg, seed) for seed in ref_cfg.seeds}


@pytest.fixture(scope="session")
def ref_oracle_dense(ref_cfg, ref_runs):
    """Dense retrain-on-retained models (the oracle before its prune)."""
    out = {}
    for seed, run in ref_runs.items():
        model = build_model(ref_cfg.arch_dims(), seed)
        train_with_cfg(model, run.train_data, run.split.retain_indices,
                       ref_cfg.train, SeededRng(seed).split("train"))
        out[seed] = model
    return out


@pytest.fixture(scope="session")
def ref_oracles(ref_oracle_dense):
    """Retrain+reprune oracles at the sparsity grid, per seed."""
    out = {}
    for seed, dense in ref_oracle_dense.items():
        for sparsity in (0.4, 0.6, 0.95):
            model = dense.clone()
            prune_magnitude(model, sparsity, scope="global")
            out[(seed, sparsity)] = model
    return out


@pytest.fixture(scope="session")
def struct_runs(struct_cfg):
    """Trained+pruned structured reference models, one per seed."""
    return {seed: prepare_seed(struct_cfg, seed) for seed in struct_cfg.seeds}


@pytest.fixture(scope="session")
def struct_oracles(struct_cfg, struct_runs):
    cfg = struct_cfg
    return {
        seed: retrain_reprune(run.train_data, run.split, cfg.arch_dims(),
                              cfg.train, cfg.sparsities[0], seed,
                              mode=cfg.prune_mode, scope=cfg.scope)[0]
        for seed, run in struct_runs.items()
    }
