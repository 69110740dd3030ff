"""Command-line entry point: every pipeline stage independently invocable.

Subcommands: train, prune, oracle, unprune, evaluate, mia-sweep, run, plot.
Exit codes: 0 full success, 1 a config, argument or input-file error,
2 partial cell failures.
The output directory is UNPRUNE_OUT if set, else --out, else [run] out.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .config import ExperimentConfig, parse_config
from .errors import ConfigError, FormatError, InputError
from .experiment import (
    _prune_to,
    _scores,
    build_data,
    cell_unprune,
    emit_scatter,
    model_cache_dir,
    prepare_seed,
    report_from_json,
    run_experiment,
)
from .mia import ratio_sweep, sweep_to_csv
from .model import load_snapshot, save_snapshot
from .numeric import SeededRng
from .oracle import cached_oracle
from .prune import sparsity_of
from .svg import line_svg
from .train import evaluate

DEFAULT_MIA_RATIOS = tuple(round(0.8 + 0.05 * i, 2) for i in range(9))


def _out_dir(cfg: ExperimentConfig, args) -> str:
    out = os.environ.get("UNPRUNE_OUT") or args.out or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    return out


def _load_cfg(args) -> ExperimentConfig:
    """The config with --seeds and --sparsity applied, validated before any work."""
    cfg = parse_config(args.config)
    if args.seeds:
        cfg = replace(cfg, seeds=tuple(int(s) for s in args.seeds.split(",")))
    if getattr(args, "sparsity", None) is not None:
        cfg = replace(cfg, sparsities=(args.sparsity,))
    return cfg.validate()


def cmd_train(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg, args)
    seed = cfg.seeds[0]
    # Training writes the dense cache entry; a hit has no log to write, so
    # it trains again without the cache.
    setup = prepare_seed(cfg, seed, model_cache_dir(cfg, out))
    if setup.log is None:
        setup = prepare_seed(cfg, seed)
    train_data, _, _, model, log, *_ = setup
    snap = os.path.join(out, f"model_seed{seed}.bin")
    save_snapshot(model, snap)
    log.to_csv(os.path.join(out, f"trainlog_seed{seed}.csv"))
    loss, acc = evaluate(model, train_data, np.arange(train_data.n))
    print(f"trained seed={seed} loss={loss:.4f} acc={acc:.4f} -> {snap}")
    return 0


def cmd_prune(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg, args)
    seed = cfg.seeds[0]
    sparsity = cfg.sparsities[0]
    if args.model:
        model = load_snapshot(args.model)
        _prune_to(model, cfg, sparsity)
    else:
        model = prepare_seed(replace(cfg, sparsities=(sparsity,)), seed,
                             model_cache_dir(cfg, out)).pruned[sparsity]
    report = sparsity_of(model)
    snap = os.path.join(out, f"pruned_seed{seed}_s{sparsity:g}.bin")
    save_snapshot(model, snap)
    print(f"pruned to {report.sparsity:.4f} "
          f"({report.zero_mask_entries}/{report.total_weights} zeros) -> {snap}")
    return 0


def cmd_oracle(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg, args)
    seed = cfg.seeds[0]
    sparsity = cfg.sparsities[0]
    train_data, _, split = build_data(cfg, seed)
    model, wall, hit = cached_oracle(
        model_cache_dir(cfg, out), train_data, split, cfg.arch_dims(),
        cfg.train, sparsity, seed, cfg.prune_mode, cfg.scope, None,
        cfg.imp_rounds,
    )
    snap = os.path.join(out, f"oracle_seed{seed}_s{sparsity:g}.bin")
    save_snapshot(model, snap)
    print(f"oracle seed={seed} s={sparsity:g} wall={wall:.3f}s "
          f"cache_hit={hit} -> {snap}")
    return 0


def cmd_unprune(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg, args)
    seed = cfg.seeds[0]
    sparsity = cfg.sparsities[0]
    method = args.method or cfg.methods[0]
    setup = prepare_seed(replace(cfg, sparsities=(sparsity,)), seed,
                         model_cache_dir(cfg, out))
    model = setup.pruned[sparsity]
    trace = cell_unprune(cfg, seed, sparsity, method, model, setup.train_data,
                         setup.test_data, setup.split)
    snap = os.path.join(out, f"unpruned_seed{seed}_s{sparsity:g}_{method}.bin")
    save_snapshot(model, snap)
    trace_path = os.path.join(out, f"trace_seed{seed}_s{sparsity:g}_{method}.csv")
    trace.to_csv(trace_path)
    print(f"unpruned ({method}) final sparsity={trace.final_sparsity:.4f} "
          f"-> {snap}")
    return 0


def cmd_evaluate(cfg: ExperimentConfig, args) -> int:
    seed = cfg.seeds[0]
    model = load_snapshot(args.model)
    train_data, test_data, split = build_data(cfg, seed)
    loss_f, ua = evaluate(model, train_data, split.forget_indices)
    loss_r, ra = evaluate(model, train_data, split.retain_indices)
    print(f"forget: loss={loss_f:.4f} ua={ua:.4f}")
    print(f"retain: loss={loss_r:.4f} acc={ra:.4f}")
    if test_data is not None:
        loss_t, ta = evaluate(model, test_data, np.arange(test_data.n))
        print(f"test:   loss={loss_t:.4f} ta={ta:.4f}")
    if args.ref:
        vs_ref = _scores(cfg, model, (load_snapshot(args.ref),), train_data,
                         test_data, split)[0]
        print(f"vs ref: iom={vs_ref['iom']:.4f} uom={vs_ref['uom']:.4f} "
              f"iou={vs_ref['iou']:.4f} kl={vs_ref['kl']:.4f}")
    return 0


def cmd_mia_sweep(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg, args)
    seed = cfg.seeds[0]
    if args.model:
        model = load_snapshot(args.model)
        train_data, test_data, split = build_data(cfg, seed)
    else:
        train_data, test_data, split, model, *_ = prepare_seed(
            cfg, seed, model_cache_dir(cfg, out))
    if test_data is None:
        raise ConfigError("mia-sweep needs held-out test data as non-members")
    ratios = list(cfg.mia_ratios or DEFAULT_MIA_RATIOS)
    # Default non-member pool is small (about the member pool size): the
    # fragility under ratio perturbations is a small-pool phenomenon.
    n_nonmembers = args.nonmembers or min(
        2 * len(split.forget_indices), test_data.n
    )
    reports = ratio_sweep(
        model, train_data, split.forget_indices,
        test_data, np.arange(min(n_nonmembers, test_data.n)),
        ratios, SeededRng(seed).split("mia"),
    )
    csv_path = os.path.join(out, f"mia_sweep_seed{seed}.csv")
    sweep_to_csv(reports, csv_path)
    svg_path = os.path.join(out, f"mia_sweep_seed{seed}.svg")
    from .mia import CHANNELS

    series = {
        channel: [(rep.ratio, rep.score(channel)) for rep in reports]
        for channel in CHANNELS
    }
    line_svg(series, "shadow ratio", "attack score", svg_path)
    spread = max(r.correctness for r in reports) - min(
        r.correctness for r in reports
    )
    print(f"mia sweep: {len(reports)} ratios, correctness spread={spread:.3f} "
          f"-> {csv_path}")
    return 0


def cmd_run(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg, args)
    report = run_experiment(cfg, out_dir=out)
    print(f"run: {len(report.rows)} rows, {len(report.errors)} failed cells "
          f"-> {os.path.join(out, 'results.csv')}")
    for err in report.errors:
        print(f"  cell failed: seed={err['seed']} method={err['method']} "
              f"s={err['sparsity']}: {err['error']}", file=sys.stderr)
    return 2 if report.errors else 0


def cmd_plot(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg, args)
    results = args.results or os.path.join(out, "results.json")
    report = report_from_json(results)
    path = os.path.join(out, f"scatter_{args.x}_{args.y}.svg")
    emit_scatter(report, args.x, args.y, path)
    print(f"plot: {len(report.rows)} rows -> {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unprune",
        description="Un-pruning laboratory: remove deleted-data influence "
                    "from sparse model weights and masks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "train": cmd_train,
        "prune": cmd_prune,
        "oracle": cmd_oracle,
        "unprune": cmd_unprune,
        "evaluate": cmd_evaluate,
        "mia-sweep": cmd_mia_sweep,
        "run": cmd_run,
        "plot": cmd_plot,
    }
    for name in commands:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default="",
                       help="output directory (default: [run] out)")
        p.add_argument("--seeds", default="", help="override seed list (CSV)")
        if name in ("prune", "oracle", "unprune"):
            p.add_argument("--sparsity", type=float, default=None)
        if name == "unprune":
            p.add_argument("--method", default="")
        if name in ("prune", "evaluate", "mia-sweep"):
            p.add_argument("--model", default="")
        if name == "mia-sweep":
            p.add_argument("--nonmembers", type=int, default=0)
        if name == "evaluate":
            p.add_argument("--ref", default="")
        if name == "plot":
            p.add_argument("--results", default="")
            p.add_argument("--x", default="iom")
            p.add_argument("--y", default="ua")
        p.set_defaults(func=commands[name])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_cfg(args)
        return args.func(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (InputError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
