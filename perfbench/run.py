#!/usr/bin/env python3
"""Benchmark of the unprune package: end-to-end metrics or a per-layer trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload unprune_eval --seed 0 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result. Set-up runs first and is
timed on its own (each sample scaled by a reference kernel timed around it,
see calibrate.py); then whole passes over the workload run until
``--seconds`` have passed (and at least the workload's minimum number of
passes has run). Outputs are checked on every pass; a failed check counts
as a failed operation and the run goes on.

``--trace 0`` reports the end-to-end metrics. Only a few probe wrappers are
installed (one un-prune cell, ``core.unprune``, the oracle retrain and the
MIA sweep), which cost microseconds per call on calls of milliseconds.
``--trace 1`` wraps every traced function of every module, runs set-up and
the passes traced, and reports the per-layer metrics from the spans. One
pass with only the probes runs first, so ``trace.overhead_frac`` compares
the traced pass wall against it. The spans are written to
``.perfbench_runs/trace-<workload>-seed<n>.npz`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the human-readable report and the machine manifest.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import layers  # noqa: E402
import manifest  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("numeric", "data", "model", "train", "prune", "unlearn", "core",
           "metrics", "mia", "oracle", "config", "experiment")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
PINS = os.path.join(HERE, "pins.json")
BASELINE_RUN = -1  # run id of the probes-only pass inside a traced run


class MissingProgram(Exception):
    pass


def import_package(root: str) -> dict:
    """Import unprune from ``root/src``, refusing any other copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "unprune", "__init__.py")):
        raise MissingProgram(f"no package at {src}/unprune")
    for name in ("reference.ini", "structured.ini"):
        if not os.path.isfile(os.path.join(root, "configs", name)):
            raise MissingProgram(f"no configs/{name} under {root}")
    sys.path.insert(0, src)
    pkg = {name: importlib.import_module(f"unprune.{name}") for name in MODULES}
    origin = os.path.dirname(os.path.abspath(pkg["numeric"].__file__))
    if origin != os.path.join(src, "unprune"):
        raise MissingProgram(f"unprune imported from {origin}, not {src}")
    return pkg


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def duration(spans: np.ndarray) -> np.ndarray:
    return spans[:, tracing.END] - spans[:, tracing.START]


def fastest_repeats(spans: np.ndarray) -> np.ndarray:
    """Fastest repeat of each distinct operation among the spans.

    Passes repeat the same operations in the same order, so the k-th span
    of a tag (method) within one run id is the same work as the k-th of
    that tag within another.
    """
    order = np.lexsort((spans[:, tracing.START], spans[:, tracing.TAG],
                        spans[:, tracing.RUN]))
    seen: dict[tuple[int, int], int] = {}
    best: dict[tuple[int, int], float] = {}
    for row in spans[order]:
        group = (int(row[tracing.RUN]), int(row[tracing.TAG]))
        k = seen.get(group, 0)
        seen[group] = k + 1
        key = (group[1], k)
        d = row[tracing.END] - row[tracing.START]
        best[key] = min(best.get(key, d), d)
    return np.array(list(best.values()))


def fastest_units(passes: list[dict]) -> tuple[float, float]:
    """Sum over a pass's units of each unit's fastest wall and CPU time."""
    n = min(len(p["units"]) for p in passes)
    samples = np.array([p["units"][:n] for p in passes])  # pass, unit, 2
    wall, cpu = samples.min(axis=0).sum(axis=0)
    return float(wall), float(cpu)


def tally(passes: list[dict], checks) -> tuple[int, int]:
    """(attempted, failed): cells run, and failed cells and checks."""
    attempted = sum(p["cells"] for p in passes)
    failed = sum(p["failed_cells"] for p in passes) + len(checks.failures)
    return attempted, failed


class Benchmark:
    """One run: set-up, the timed passes, and the result."""

    def __init__(self, args, pkg, info: dict):
        self.args = args
        self.pkg = pkg
        self.info = info
        self.modules = list(pkg.values())
        self.work_dir = os.path.join(
            RUNS_DIR, f"{args.workload}-seed{args.seed}-{os.getpid()}")
        self.targets = layers.targets(pkg)
        self.tracer = tracing.Tracer(layers.span_names(self.targets))
        with open(PINS) as fh:
            pins = json.load(fh)
        self.checks = workloads.Checks(args.workload, args.seed, pins)
        self.cal = calibrate.Calibration()
        ctx = workloads.Context(pkg, ROOT, self.work_dir, args.seed,
                                self.checks, self.cal.block)
        self.workload = workloads.make(args.workload, ctx, self.tracer)
        self.spans: list[np.ndarray] = []
        self.passes: list[dict] = []
        self.traced_wall = 0.0  # set-up samples and passes

    # -- phases ------------------------------------------------------------
    def run(self) -> dict:
        traced = bool(self.args.trace)
        full = self.targets
        probes = layers.probe_targets(self.targets)
        try:
            self.tracer.install(full if traced else probes, self.modules)
            self.setup_samples = self.workload.setup()
            self.cal.block()
            self.traced_wall = sum(d for _, d in self.setup_samples)
            self._collect()
            self.tracer.uninstall()
            if traced:
                self.tracer.install(probes, self.modules)
                self.baseline = self._pass(BASELINE_RUN)
                self.tracer.uninstall()
            self.tracer.install(full if traced else probes, self.modules)
            start = perf_counter()
            run_id = 1
            while (run_id <= (1 if traced else self.workload.min_passes)
                   or perf_counter() - start < self.args.seconds):
                self.passes.append(self._pass(run_id))
                self.traced_wall += self.passes[-1]["wall"]
                run_id += 1
        finally:
            self.tracer.uninstall()
        self.wrappers_left = tracing.wrapped_attributes(self.modules)
        self.checks.check(not self.wrappers_left,
                          f"wrappers left installed: {self.wrappers_left}")
        if traced:
            return self.layer_result()
        return self.end_to_end_result()

    def _pass(self, run_id: int) -> dict:
        self.tracer.run = run_id
        result = self.workload.run_pass(run_id)
        with self.tracer.paused():
            self.workload.audit()
        self._collect()
        return result

    def _collect(self) -> np.ndarray:
        spans = self.tracer.collect()
        self.spans.append(spans)
        return spans

    def _ids(self, *names) -> list[int]:
        return [self.tracer.index[n] for n in names]

    def _select(self, *names) -> np.ndarray:
        spans = np.concatenate(self.spans)
        return spans[np.isin(spans[:, tracing.NAME], self._ids(*names))]

    def counts(self) -> tuple[int, int]:
        return tally(self.passes, self.checks)

    # -- results -----------------------------------------------------------
    def end_to_end_result(self) -> dict:
        """Bounded timings use each unit of work's fastest repeat.

        Other tenants of a shared machine add time to many calls at random;
        the fastest of repeated runs of the same work is its cost without
        that interference. Set-up samples are single timings and are scaled
        by the calibration kernel instead (see LAYERS.md). Medians and tails
        are printed too.
        """
        cells = self._select("experiment._unprune_cell")
        unprunes = self._select("core.unprune")
        oracles = self._select("oracle.retrain_reprune")
        sweeps = self._select("mia.ratio_sweep")
        walls = [p["wall"] for p in self.passes]
        unprune_best = fastest_repeats(unprunes)
        oracle_best = fastest_repeats(oracles)
        unit_wall, unit_cpu = fastest_units(self.passes)
        raw_setup = [d for _, d in self.setup_samples]
        metrics = {
            "setup_s": (stats.median([d * self.cal.scale(t, d)
                                      for t, d in self.setup_samples]), "s"),
            "grid_s": (unit_wall, "s"),
            "cell_ms": (fastest_repeats(cells).mean() * 1e3, "ms"),
            "cpu_s": (unit_cpu, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        units = len(self.passes[0]["units"])
        attempted, failed = self.counts()
        lines = [f"{k}: {v:.6g} {u}" for k, (v, u) in metrics.items()]
        lines[0] += (f" (median of {len(self.setup_samples)} set-ups, each "
                     f"scaled to the calibration kernel's nominal speed; "
                     f"unscaled median {stats.median(raw_setup):.6g} s)")
        lines[1] += (f" (sum over {units} units of each one's fastest of "
                     f"{len(walls)} passes; median pass {stats.median(walls):.4f} s)")
        lines[2] += f" (mean of {len(fastest_repeats(cells))} cells' fastest repeats)"
        lines[3] += " (same rule as grid_s, on user+sys CPU)"
        cell_s, sweep_s = duration(cells), duration(sweeps)
        lines += [
            f"cell_p50_ms: {stats.median(cell_s) * 1e3:.4f} ms "
            f"({len(cell_s)} samples, all methods)",
            stats.describe_percentile("cell_p90_ms", cell_s, 0.9, 1e3, "ms"),
            (f"mia_sweep_p50_ms: {stats.median(sweep_s) * 1e3:.4f} ms "
             f"({len(sweep_s)} samples; mean fastest repeat "
             f"{fastest_repeats(sweeps).mean() * 1e3:.4f} ms over "
             f"{len(fastest_repeats(sweeps))} sweeps)") if len(sweep_s)
            else "mia_sweep_p50_ms: n/a (0 samples; no sweep in this workload)",
            f"unprune_vs_oracle: "
            f"{unprune_best.mean() / oracle_best.mean():.6g} ratio (mean "
            f"fastest core.unprune {unprune_best.mean():.6f} s over "
            f"{len(unprune_best)} cells, n={len(unprunes)}; mean fastest "
            f"oracle.retrain_reprune {oracle_best.mean():.4f} s over "
            f"{len(oracle_best)} oracles, n={len(oracles)}; by medians "
            f"{stats.median(duration(unprunes)):.6f} s / "
            f"{stats.median(duration(oracles)):.4f} s)",
            f"fail_rate: {failed / attempted:.6g} ratio "
            f"({attempted} attempted, {failed} failed)",
        ]
        return {"lines": lines, "metrics": metrics, "attempted": attempted,
                "failed": failed}

    def layer_result(self) -> dict:
        spans = np.concatenate(self.spans)
        table = layers.SpanTable(spans[spans[:, tracing.RUN] != BASELINE_RUN],
                                 self.tracer.names)
        metrics = layers.layer_metrics(table, len(self.workload.cfg.arch_dims())
                                       - 1)
        metrics["numeric.matmul_overhead_us"] = (
            self._matmul_overhead_us(table), "us")
        traced_walls = [p["wall"] for p in self.passes]
        metrics["trace.overhead_frac"] = (
            stats.median(traced_walls) / self.baseline["wall"] - 1.0, "ratio")
        window = self.traced_wall
        metrics["trace.outside_frac"] = (
            (window - self._module_cover(table)) / window, "ratio")
        metrics["trace.spans"] = (len(table.spans), "count")
        self._write_trace(spans)
        attempted, failed = self.counts()
        lines = [f"{k}: {v:.6g} {u}" for k, (v, u) in metrics.items()]
        lines.append(f"trace: {window:.3f} s traced wall, "
                     f"{metrics['trace.outside_frac'][0] * window:.3f} s "
                     f"outside any module span; baseline pass "
                     f"{self.baseline['wall']:.3f} s, traced passes "
                     + ", ".join(f"{w:.3f}" for w in traced_walls) + " s")
        return {"lines": lines, "metrics": metrics, "attempted": attempted,
                "failed": failed}

    def _module_cover(self, table) -> float:
        """Wall covered by the outermost module spans."""
        top = table.parent_row < 0
        return tracing.union_length(
            zip(table.spans[top, tracing.START], table.spans[top, tracing.END]))

    def _matmul_overhead_us(self, table, reps: int = 300) -> float:
        """Median numeric.matmul minus bare ``a @ b`` on the same operands.

        Uses the three most frequent operand shapes of the traced run,
        weighted by their call counts.
        """
        mm = table.spans[table.sel("numeric.matmul")]
        if not len(mm):
            return 0.0
        shapes, counts = np.unique(mm[:, [tracing.A, tracing.B, tracing.C]]
                                   .astype(np.int64), axis=0,
                                   return_counts=True)
        top = np.argsort(-counts, kind="stable")[:3]
        rng = np.random.default_rng(0)
        matmul = self.pkg["numeric"].matmul
        total = 0.0
        for i in top:
            m, k, n = shapes[i]
            a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
            wrapped, bare = [], []
            for _ in range(reps):
                t0 = perf_counter()
                matmul(a, b)
                t1 = perf_counter()
                a @ b
                t2 = perf_counter()
                wrapped.append(t1 - t0)
                bare.append(t2 - t1)
            total += counts[i] * (stats.median(wrapped) - stats.median(bare))
        return total / counts[top].sum() * 1e6

    def _write_trace(self, spans: np.ndarray) -> None:
        os.makedirs(RUNS_DIR, exist_ok=True)
        path = os.path.join(RUNS_DIR, f"trace-{self.args.workload}-"
                                      f"seed{self.args.seed}.npz")
        np.savez_compressed(path, spans=spans, fields=np.array(tracing.FIELDS),
                            names=np.array(self.tracer.names),
                            manifest=np.array(json.dumps(self.info)))
        print(f"trace: {len(spans)} spans written to {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        pkg = import_package(ROOT)
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    info = manifest.manifest(ROOT, args.workload, args.seed, args.seconds,
                             bool(args.trace))
    bench = Benchmark(args, pkg, info)
    try:
        result = bench.run()
    finally:
        shutil.rmtree(bench.work_dir, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}: {len(bench.passes)} passes")
    for line in result["lines"]:
        print(line)
    print("manifest: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
