"""The benchmark's workloads: set-up, one timed pass, and the output checks.

Each workload derives its model seeds from the workload seed, so the same
``--seed`` gives the same inputs, and calls the package only through module
attributes (``experiment.run_experiment``, ``core.unprune``, ...), so the
tracer's wrappers see every call.

* ``struct_grid_warm``: ``run_experiment`` on configs/structured.ini, two
  seeds, ``jobs = 1``; set-up fills the oracle cache, so every oracle in a
  pass is a snapshot read.
* ``unprune_eval``: set-up trains, prunes and builds the oracle for three
  reference seeds; a pass runs ``experiment._unprune_cell`` once per seed x
  sparsity x method x init (it scores the un-pruned model against the
  oracle and the original) and the 9-ratio MIA sweep on the un-pruned model.

``audit`` runs after each pass with the tracer's wrappers paused, so the
benchmark's own calls into the package are not counted as the program's:
``struct_grid_warm`` reads each oracle back from the cache the grid used (a
lookup that must hit) and checks its sparsity count and MIA scores;
``unprune_eval`` writes and digests the pass's rows.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import json
import math
import os
import resource
import shutil
import sys
from time import perf_counter

import numpy as np

DEFAULT_SEED = 0
MIA_RATIOS = [round(0.8 + 0.05 * i, 2) for i in range(9)]
MIA_NONMEMBERS = 80
INITS = ("original", "random")
IDENTITY_TOL = 1e-12   # iom == iou * uom up to float rounding
TRACE_TOL = 1e-9       # trace CSVs print sparsity with 10 significant digits


def model_seeds(seed: int, count: int) -> tuple[int, ...]:
    """Model seeds of workload seed ``seed``: disjoint for distinct seeds."""
    return tuple(count * seed + i for i in range(count))


def cpu_seconds() -> float:
    """User + system CPU of this process (all its threads)."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def expected_zeros(dims: list[int], sparsity: float, mode: str) -> int:
    """Masked weight entries after pruning to ``sparsity``, exactly."""
    if mode == "structured":
        return sum(math.floor(sparsity * dims[l + 1]) * dims[l]
                   for l in range(len(dims) - 2))
    total = sum(dims[l] * dims[l + 1] for l in range(len(dims) - 1))
    return int(np.floor(sparsity * total + 0.5))


class Units:
    """Wall and CPU seconds of each unit of work of a pass, in pass order.

    Passes repeat the same units in the same order, so unit i of one pass
    and unit i of another are the same work.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    @contextlib.contextmanager
    def measure(self):
        cpu0 = cpu_seconds()
        t0 = perf_counter()
        try:
            yield
        finally:
            self.samples.append((perf_counter() - t0, cpu_seconds() - cpu0))


class Checks:
    """Output checks; each failed one counts as one failed operation."""

    def __init__(self, workload: str, seed: int, pins: dict):
        self.workload = workload
        self.seed = seed
        self.pins = pins
        self.failures: list[str] = []
        self._first: dict[str, dict] = {}

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)
            print(f"check failed: {message}", file=sys.stderr)

    def digests(self, label: str, digests: dict[str, str]) -> None:
        """Repeats in one run are byte-identical; the default seed is pinned."""
        first = self._first.setdefault(label, digests)
        self.check(digests == first,
                   f"{label}: differs from the first repeat in this run")
        if self.seed != DEFAULT_SEED:
            return
        pinned = self.pins.get(self.workload, {})
        for name, digest in sorted(digests.items()):
            self.check(pinned.get(name) == digest,
                       f"{self.workload} {name}: sha256 {digest} != pinned "
                       f"{pinned.get(name)}")

    def scores(self, label: str, row: dict) -> None:
        iom, uom, iou = row["iom"], row["uom"], row["iou"]
        self.check(0.0 <= iom <= uom <= 1.0,
                   f"{label}: not 0 <= iom <= uom <= 1 ({iom}, {uom})")
        self.check(abs(iom - iou * uom) <= IDENTITY_TOL,
                   f"{label}: iom {iom} != iou * uom {iou * uom}")
        for key in ("ta", "ua"):
            self.check(0.0 <= row[key] <= 1.0,
                       f"{label}: {key} = {row[key]} outside [0, 1]")

    def mia(self, label: str, reports) -> None:
        from unprune.mia import CHANNELS

        bad = [(r.ratio, c, r.score(c)) for r in reports for c in CHANNELS
               if not 0.0 <= r.score(c) <= 1.0]
        self.check(len(reports) == len(MIA_RATIOS) and not bad,
                   f"{label}: MIA scores outside [0, 1]: {bad}")


class Context:
    """What a workload needs from the run: package, paths, seed, checks.

    ``calibrate`` is called before each set-up sample (it times the
    machine's current speed, see calibrate.py).
    """

    def __init__(self, pkg: dict, root: str, work_dir: str, seed: int,
                 checks: Checks, calibrate):
        self.calibrate = calibrate
        self.pkg = pkg
        self.root = root
        self.work_dir = work_dir
        self.seed = seed
        self.checks = checks


def cached_oracle(pkg, cache_dir, cfg, seed, sparsity, train, split):
    """The oracle through the package's cache, keyed as run_experiment keys it."""
    return pkg["oracle"].cached_oracle(
        cache_dir, train, split, cfg.arch_dims(), cfg.train, sparsity, seed,
        cfg.prune_mode, cfg.scope, None, cfg.imp_rounds)


class StructGridWarm:
    """``run_experiment`` on configs/structured.ini with a warm oracle cache.

    Each model seed is its own grid (``seeds = (seed,)``) in its own output
    directory, so a pass has one unit of work per seed: a few seconds each,
    which the fastest-repeat rule handles better than one longer grid.
    """

    seeds = 2
    min_passes = 5

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.config_path = os.path.join(ctx.root, "configs", "structured.ini")
        self.model_seeds = model_seeds(ctx.seed, self.seeds)
        self.out_dirs = {seed: os.path.join(ctx.work_dir, f"grid-seed{seed}")
                         for seed in self.model_seeds}

    def _config(self, seed: int):
        cfg = self.ctx.pkg["config"].parse_config(self.config_path)
        return dataclasses.replace(cfg, seeds=(seed,), jobs=1,
                                   record_timing=False)

    @property
    def cells_per_pass(self) -> int:
        return len(self.model_seeds) * len(self.cfg.sparsities) * len(
            self.cfg.methods)

    def setup(self) -> list[tuple[float, float]]:
        """(start, seconds) per seed: parse, build data, fill the cache."""
        p = self.ctx.pkg
        samples = []
        self.cfgs, self.data = {}, {}
        for seed in self.model_seeds:
            self.ctx.calibrate()
            t0 = perf_counter()
            self.cfg = self.cfgs[seed] = self._config(seed)
            self.data[seed] = p["experiment"].build_data(self.cfg, seed)
            for sparsity in self.cfg.sparsities:
                self._oracle(seed, sparsity)
            samples.append((t0, perf_counter() - t0))
        return samples

    def _oracle(self, seed, sparsity):
        train, _, split = self.data[seed]
        cache_dir = os.path.join(self.out_dirs[seed], "oracle_cache")
        return cached_oracle(self.ctx.pkg, cache_dir, self.cfgs[seed], seed,
                             sparsity, train, split)

    def run_pass(self, index: int) -> dict:
        p = self.ctx.pkg
        units = Units()
        self.reports = {}
        failed = 0
        cpu0 = cpu_seconds()
        t0 = perf_counter()
        for seed in self.model_seeds:
            with units.measure():
                try:
                    report = p["experiment"].run_experiment(
                        self.cfgs[seed], self.out_dirs[seed])
                except Exception as exc:  # the grid failed; count its cells
                    report = None
                    print(f"grid seed {seed} failed: {exc!r}",
                          file=sys.stderr)
            if report is None:
                failed += self.cells_per_pass // len(self.model_seeds)
                continue
            self.reports[seed] = report
            failed += len(report.errors)
            for err in report.errors:
                print(f"cell failed: {err}", file=sys.stderr)
        wall = perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        return {"start": t0, "wall": wall, "cpu": cpu, "units": units.samples,
                "cells": self.cells_per_pass, "failed_cells": failed}

    def audit(self) -> None:
        """Check the last pass's outputs and the oracles in its caches."""
        for seed in self.reports:
            self._check_outputs(seed)
            self._audit_oracles(seed)

    def _check_outputs(self, seed: int) -> None:
        checks, cfg, out_dir = self.ctx.checks, self.cfgs[seed], self.out_dirs[seed]
        checks.digests(f"results seed {seed}", {
            f"seed{seed - self.model_seeds[0]}/{name}":
                sha256_file(os.path.join(out_dir, name))
            for name in ("results.csv", "results.json")})
        with open(os.path.join(out_dir, "results.json")) as fh:
            payload = json.load(fh)
        rows_per_seed = 2 + 2 * len(cfg.methods)
        checks.check(
            len(payload["rows"]) == rows_per_seed * len(cfg.sparsities)
            and not payload["errors"],
            f"{out_dir}/results.json: {len(payload['rows'])} rows, "
            f"{len(payload['errors'])} errors")
        for row in payload["rows"]:
            checks.scores(f"{row['seed']}/{row['method']}", row)
        total = sum(a * b for a, b in zip(cfg.arch_dims(), cfg.arch_dims()[1:]))
        for sparsity in cfg.sparsities:
            want = expected_zeros(cfg.arch_dims(), sparsity,
                                  cfg.prune_mode) / total
            for method in cfg.methods:
                path = os.path.join(
                    out_dir, "traces",
                    f"trace_seed{seed}_s{sparsity:g}_{method}.csv")
                with open(path, newline="") as fh:
                    final = [r for r in csv.reader(fh) if r[0] == "final"]
                got = float(final[0][1]) if final else float("nan")
                checks.check(abs(got - want) <= TRACE_TOL,
                             f"{path}: final sparsity {got} != {want}")

    def _audit_oracles(self, seed: int) -> None:
        """Read each oracle back from the grid's cache; check and attack it."""
        p, checks, cfg = self.ctx.pkg, self.ctx.checks, self.cfgs[seed]
        train, test, split = self.data[seed]
        for sparsity in cfg.sparsities:
            model, _, hit = self._oracle(seed, sparsity)
            label = f"oracle seed {seed} s{sparsity:g}"
            checks.check(hit, f"{label}: cache lookup missed")
            zeros = p["prune"].sparsity_of(model).zero_mask_entries
            want = expected_zeros(cfg.arch_dims(), sparsity, cfg.prune_mode)
            checks.check(zeros == want,
                         f"{label}: {zeros} masked entries != {want}")
            reports = p["mia"].ratio_sweep(
                model, train, split.forget_indices, test,
                np.arange(MIA_NONMEMBERS), MIA_RATIOS,
                p["numeric"].SeededRng(seed).split("mia/oracle"))
            checks.mia(label, reports)


class UnpruneEval:
    """Un-prune cells on trained, pruned reference models, with MIA sweeps."""

    config_file = "reference.ini"
    seeds = 3  # MIA and cell costs vary by model; more seeds average that
    min_cells = 100  # so that the cell p90 has 10 samples beyond it

    def __init__(self, ctx: Context, tracer):
        self.ctx = ctx
        self.tracer = tracer
        # The MIA sweep attacks the model the cell un-pruned, which
        # experiment._unprune_cell does not return; core.unprune does.
        tracer.keep_result("core.unprune")

    def setup(self) -> list[tuple[float, float]]:
        """(start, seconds) per seed: parse, data, train, prune, oracle."""
        p = self.ctx.pkg
        path = os.path.join(self.ctx.root, "configs", self.config_file)
        self.models = {}
        samples = []
        for seed in model_seeds(self.ctx.seed, self.seeds):
            self.ctx.calibrate()
            t0 = perf_counter()
            cfg = dataclasses.replace(p["config"].parse_config(path),
                                      seeds=model_seeds(self.ctx.seed,
                                                        self.seeds),
                                      record_timing=False)
            train, test, split = p["experiment"].build_data(cfg, seed)
            dense = p["oracle"].build_model(cfg.arch_dims(), seed)
            p["train"].train_with_cfg(dense, train, np.arange(train.n),
                                      cfg.train,
                                      p["numeric"].SeededRng(seed).split("train"))
            for sparsity in cfg.sparsities:
                pruned = dense.clone()
                p["experiment"]._prune_to(pruned, cfg, sparsity)
                oracle, _, _ = cached_oracle(p, None, cfg, seed, sparsity,
                                             train, split)
                self.models[(seed, sparsity)] = (pruned, oracle, train, test,
                                                 split)
            samples.append((t0, perf_counter() - t0))
            self.cfg = cfg
        return samples

    @property
    def cells_per_pass(self) -> int:
        return len(self.models) * len(self.cfg.methods) * len(INITS)

    @property
    def min_passes(self) -> int:
        return math.ceil(self.min_cells / self.cells_per_pass)

    def run_pass(self, index: int) -> dict:
        p, cfg = self.ctx.pkg, self.cfg
        self.index = index
        self.report = p["experiment"].ExperimentReport()
        units = Units()
        failed = 0
        cpu0 = cpu_seconds()
        t0 = perf_counter()
        for (seed, sparsity), inputs in sorted(self.models.items()):
            for method in cfg.methods:
                for init in INITS:
                    try:
                        self.report.rows.extend(self._cell(
                            units, seed, sparsity, method, init, *inputs))
                    except Exception as exc:  # a failed cell; keep going
                        failed += 1
                        print(f"cell failed: seed {seed} {method}/{init}: "
                              f"{exc!r}", file=sys.stderr)
        wall = perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        return {"start": t0, "wall": wall, "cpu": cpu, "units": units.samples,
                "cells": self.cells_per_pass, "failed_cells": failed}

    def audit(self) -> None:
        """The pass's rows, written as the grid writes them, are identical."""
        p = self.ctx.pkg
        self.report.rows.sort(key=lambda r: (r.seed, r.sparsity, r.method))
        out_dir = os.path.join(self.ctx.work_dir, f"pass{self.index}")
        os.makedirs(out_dir)
        digests = {}
        for name, emit in (("cells.csv", p["experiment"].emit_csv),
                           ("cells.json", p["experiment"].emit_json)):
            emit(self.report, os.path.join(out_dir, name))
            digests[name] = sha256_file(os.path.join(out_dir, name))
        self.ctx.checks.digests("cells", digests)
        shutil.rmtree(out_dir)

    def _cell(self, units, seed, sparsity, method, init, pruned, oracle,
              train, test, split):
        """One ``experiment._unprune_cell`` with the given init, then MIA.

        The cell and the MIA sweep on its un-pruned model are two units of
        the pass. The cell's rng label names seed, sparsity and method, not
        the init, so both inits of a cell start from the same rng stream;
        the rows are relabelled ``<method>/<init>``.
        """
        p, cfg, checks = self.ctx.pkg, self.cfg, self.ctx.checks
        label = f"{method}/{init}"
        payload = (dataclasses.replace(cfg, init_strategy=init), seed,
                   sparsity, method, pruned, oracle, train, test, split)
        with units.measure():
            vs_oracle, vs_original, _ = p["experiment"]._unprune_cell(payload)
        model, _ = self.tracer.take("core.unprune")
        rows = [dataclasses.replace(vs_oracle, method=label),
                dataclasses.replace(vs_original,
                                    method=f"{label}:vs_original")]
        zeros = sum(int(m.size - m.sum()) for m in model.masks)
        want = expected_zeros(cfg.arch_dims(), sparsity, cfg.prune_mode)
        checks.check(zeros == want,
                     f"seed {seed} {label}: {zeros} masked entries != {want}")
        for row in rows:
            checks.scores(f"seed {seed} {row.method}",
                          dataclasses.asdict(row))
        with units.measure():
            reports = p["mia"].ratio_sweep(
                model, train, split.forget_indices, test,
                np.arange(MIA_NONMEMBERS), MIA_RATIOS,
                p["numeric"].SeededRng(seed).split(f"mia/{label}"))
        checks.mia(f"seed {seed} {label}", reports)
        return rows


def make(name: str, ctx: Context, tracer):
    if name == "struct_grid_warm":
        return StructGridWarm(ctx)
    if name == "unprune_eval":
        return UnpruneEval(ctx, tracer)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("struct_grid_warm", "unprune_eval")
