"""Shared fixtures: each reference task's shipped grid runs once per session.

The two reference tasks are the shipped configs: configs/reference.ini
(unstructured) and configs/structured.ini (whole-neuron masks). One session
fixture per task runs the config's grid without timing; the set-ups and
oracles the tests use are read back from that grid's model cache, and the
pruned originals are cut from the cached dense model the way the grid cuts
them, so every model a test sees is one the grid scored.

``blas_threads`` replaces the BLAS thread-count handle with a fake that
records every count the program sets.
"""

import os
from dataclasses import replace

import pytest

from unprune import numeric
from unprune.config import parse_config
from unprune.experiment import (
    _prune_to,
    cell_oracle,
    model_cache_dir,
    prepare_seed,
    run_experiment,
)

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "configs")


@pytest.fixture(scope="session")
def ref_cfg():
    return parse_config(os.path.join(CONFIGS, "reference.ini"))


@pytest.fixture(scope="session")
def struct_cfg():
    return parse_config(os.path.join(CONFIGS, "structured.ini"))


def _grid(cfg, tmp_path_factory, name):
    out = tmp_path_factory.mktemp(name)
    report = run_experiment(replace(cfg, record_timing=False), out_dir=str(out))
    assert not report.errors
    return report, out


def _cached_setups(cfg, out):
    """Each seed's set-up, read from the grid's model cache.

    A miss would train a model the grid never scored, so it fails loudly.
    """
    setups = {}
    for seed in cfg.seeds:
        setups[seed] = prepare_seed(cfg, seed, model_cache_dir(str(out)))
        assert setups[seed].log is None, f"seed {seed}: dense model not cached"
    return setups


@pytest.fixture(scope="session")
def ref_grid(ref_cfg, tmp_path_factory):
    """(report, out dir) of one run of the reference grid."""
    return _grid(ref_cfg, tmp_path_factory, "reference")


@pytest.fixture(scope="session")
def struct_grid(struct_cfg, tmp_path_factory):
    """(report, out dir) of one run of the structured grid."""
    return _grid(struct_cfg, tmp_path_factory, "structured")


def _pruned(cfg, runs):
    """Each seed's original pruned to the config's one sparsity, as the grid
    prunes it: a clone of the dense model through ``_prune_to``."""
    (sparsity,) = cfg.sparsities
    return {seed: _prune_to(run.dense.clone(), cfg, sparsity)
            for seed, run in runs.items()}


@pytest.fixture(scope="session")
def ref_runs(ref_cfg, ref_grid):
    """Set-ups of the unstructured reference task (data, dense original),
    one per seed."""
    return _cached_setups(ref_cfg, ref_grid[1])


@pytest.fixture(scope="session")
def struct_runs(struct_cfg, struct_grid):
    """Set-ups of the structured reference task, one per seed."""
    return _cached_setups(struct_cfg, struct_grid[1])


@pytest.fixture(scope="session")
def ref_pruned(ref_cfg, ref_runs):
    """The unstructured reference task's pruned original, one per seed."""
    return _pruned(ref_cfg, ref_runs)


@pytest.fixture(scope="session")
def struct_pruned(struct_cfg, struct_runs):
    """The structured reference task's pruned original, one per seed."""
    return _pruned(struct_cfg, struct_runs)


@pytest.fixture(scope="session")
def ref_oracles(ref_cfg, ref_grid, ref_runs):
    """The reference grid's retrain+reprune oracle, one per seed."""
    cache_dir = model_cache_dir(str(ref_grid[1]))
    out = {}
    for seed, run in ref_runs.items():
        out[seed], _, hit = cell_oracle(ref_cfg, seed, ref_cfg.sparsities[0],
                                        run.train_data, run.split, cache_dir)
        assert hit, f"seed {seed}: oracle not cached"
    return out


class RecordingThreads:
    """Stands in for the BLAS thread-count handle and records every set."""

    def __init__(self, count):
        self.count = count
        self.sets = []

    def get(self):
        return self.count

    def set(self, n):
        self.sets.append(n)
        self.count = n


@pytest.fixture
def blas_threads(monkeypatch):
    """A ``RecordingThreads`` at 3 threads in place of the real BLAS handle."""
    fake = RecordingThreads(3)
    monkeypatch.setattr(numeric, "_BLAS_THREADS", (fake.get, fake.set))
    return fake
