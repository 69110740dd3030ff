"""Which functions of each module are wrapped, and the per-layer metrics.

The layers are the package's modules. Every wrapped function gets a span
named ``<module>.<function>``.
``PROBES`` is the small set that stays on in untraced runs: it times only
the boundaries the end-to-end metrics are defined on (one un-prune cell,
one ``core.unprune``, one oracle retrain, one MIA sweep), a few calls per
second of work.
"""

from __future__ import annotations

import numpy as np

from tracer import (A, B, C, END, NAME, START, TAG, original, parent_rows,
                    self_times)

METHODS = ("noop", "gradient_ascent", "fisher_forgetting", "finetune")

PROBES = ("experiment._unprune_cell", "core.unprune",
          "oracle.retrain_reprune", "mia.ratio_sweep")

_RNG_METHODS = ("split", "normal", "uniform", "permutation", "choice",
                "integers")


def _method_tag(name: str) -> int:
    return METHODS.index(name) if name in METHODS else -1


def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _ext_matmul(args, kwargs, result):
    m, k = np.shape(args[0])
    return 0, m, k, np.shape(args[1])[1]


def _ext_rows(args, kwargs, result):
    return 0, len(args[1]), 0, 0


def _ext_epochs(args, kwargs, result):
    return 0, int(_arg(args, kwargs, 3, "epochs")), 0, 0


def _ext_cached_oracle(args, kwargs, result):
    return int(args[0] is not None), int(result[2]), 0, 0


def _ext_grow(args, kwargs, result):
    return 0, len(result[1]), 0, 0


def _ext_unlearn(args, kwargs, result):
    config = _arg(args, kwargs, 3, "config")
    return _method_tag(config.method), config.steps, 0, 0


def _ext_cell(args, kwargs, result):
    return _method_tag(args[0][3]), 0, 0, 0


def _ext_unprune(args, kwargs, result):
    """Tag the method; count iterations, grown entries and grown-and-kept.

    Reads the final mask through the unwrapped ``neuron_mask``, so the
    extractor's own call is not traced as the program's.
    """
    from unprune.prune import neuron_mask

    config = _arg(args, kwargs, 3, "config")
    model, trace = result
    grown = (np.unique(np.concatenate(trace.grown)) if trace.grown
             else np.zeros(0, dtype=np.int64))
    if _arg(args, kwargs, 5, "mode", "unstructured") == "structured":
        final = original(neuron_mask)(model)
    else:
        final = model.flat_masks()
    kept = int((final[grown] == 1.0).sum()) if len(grown) else 0
    return (_method_tag(config.unlearn.method), config.iterations,
            len(grown), kept)


def targets(modules: dict) -> list[tuple]:
    """(owner, attribute, span name, extractor) for every wrapped function."""
    m = modules
    out = [
        (m["numeric"], "matmul", "numeric.matmul", _ext_matmul),
        (m["numeric"], "softmax_cross_entropy", "numeric.softmax_ce", None),
        (m["model"], "init_model", "model.init_model", None),
        (m["model"], "forward", "model.forward", _ext_rows),
        (m["model"], "backward", "model.backward", _ext_rows),
        (m["model"], "apply_mask", "model.apply_mask", None),
        (m["model"], "save_snapshot", "model.save_snapshot", None),
        (m["model"], "load_snapshot", "model.load_snapshot", None),
        (m["train"], "train_sgd", "train.train_sgd", _ext_epochs),
        (m["train"], "train_with_cfg", "train.train_with_cfg", None),
        (m["train"], "evaluate", "train.evaluate", None),
        (m["oracle"], "build_model", "oracle.build_model", None),
        (m["oracle"], "oracle_key", "oracle.oracle_key", None),
        (m["oracle"], "retrain_reprune", "oracle.retrain_reprune", None),
        (m["oracle"], "cached_oracle", "oracle.cached_oracle",
         _ext_cached_oracle),
        (m["core"], "unprune", "core.unprune", _ext_unprune),
        (m["core"], "reinit_pruned", "core.reinit_pruned", None),
        (m["core"], "grow_mask", "core.grow", _ext_grow),
        (m["core"], "grow_mask_structured", "core.grow", _ext_grow),
        (m["unlearn"], "unlearn", "unlearn.unlearn", _ext_unlearn),
        (m["unlearn"], "unlearn_gradient_ascent", "unlearn.gradient_ascent",
         None),
        (m["unlearn"], "unlearn_finetune", "unlearn.finetune", None),
        (m["unlearn"], "unlearn_fisher_forgetting",
         "unlearn.fisher_forgetting", None),
        (m["mia"], "ratio_sweep", "mia.ratio_sweep", None),
        (m["mia"], "mia_evaluate", "mia.mia_evaluate", None),
        (m["mia"], "mia_features", "mia.mia_features", None),
        (m["experiment"], "run_experiment", "experiment.run_experiment", None),
        (m["experiment"], "_unprune_cell", "experiment._unprune_cell",
         _ext_cell),
        (m["experiment"], "build_data", "experiment.build_data", None),
        (m["experiment"], "_scores", "experiment._scores", None),
        (m["experiment"], "emit_csv", "experiment.emit_csv", None),
        (m["experiment"], "emit_json", "experiment.emit_json", None),
        (m["data"], "gen_blobs", "data.gen_blobs", None),
        (m["data"], "split_delete", "data.split_delete", None),
        (m["config"], "parse_config", "config.parse_config", None),
        (m["config"], "parse_config_text", "config.parse_config_text", None),
    ]
    for fn in ("prune_magnitude", "prune_structured_l2", "sparsity_of",
               "neuron_mask"):
        out.append((m["prune"], fn, f"prune.{fn}", None))
    for fn in ("iom", "uom", "iou", "kl_masked_weights"):
        out.append((m["metrics"], fn, f"metrics.{fn}", None))
    rng_cls = m["numeric"].SeededRng
    for fn in _RNG_METHODS:
        out.append((rng_cls, fn, "numeric.rng", None))
    return out


def span_names(all_targets) -> list[str]:
    names = []
    for _, _, name, _ in all_targets:
        if name not in names:
            names.append(name)
    return names


def probe_targets(all_targets) -> list[tuple]:
    return [t for t in all_targets if t[2] in PROBES]


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def layer_passes(n_layers: int, kind: str) -> list[tuple[int, str]]:
    """Order of the matmuls inside one model.forward / model.backward call.

    Forward multiplies layer 0, 1, ..., L-1. Backward first re-runs that
    forward, then walks down: dW of layer l, then dX of layer l (no dX for
    layer 0). Operand shapes repeat across layers (2-32-32-2), so the
    position, not the shape, identifies the layer.
    """
    order = [(l, "fwd") for l in range(n_layers)]
    if kind == "backward":
        for l in range(n_layers - 1, -1, -1):
            order.append((l, "dw"))
            if l > 0:
                order.append((l, "dx"))
    return order


class SpanTable:
    """Merged spans with per-name lookups and self times."""

    def __init__(self, spans: np.ndarray, names: list[str]):
        self.spans = spans
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}
        self.dur = spans[:, END] - spans[:, START]
        self.parent_row = parent_rows(spans)
        self.self_t = self_times(spans, self.parent_row)
        self.ids = spans[:, NAME].astype(np.int64)
        modules = sorted({_module(n) for n in names})
        self.module_index = {m: i for i, m in enumerate(modules)}
        module_ids = np.array([self.module_index[_module(n)] for n in names])
        self.module_of = module_ids[self.ids]
        parent_mod = np.where(self.parent_row >= 0,
                              self.module_of[self.parent_row], -1)
        self.outermost = parent_mod != self.module_of

    def sel(self, *names: str) -> np.ndarray:
        return np.isin(self.ids, [self.index[n] for n in names])

    def calls(self, *names) -> int:
        return int(self.sel(*names).sum())

    def time(self, *names) -> float:
        return float(self.dur[self.sel(*names)].sum())

    def col(self, column: int, *names) -> np.ndarray:
        return self.spans[self.sel(*names), column]

    def in_module(self, module: str) -> np.ndarray:
        return self.module_of == self.module_index[module]

    def module_entry(self, module: str) -> np.ndarray:
        return self.in_module(module) & self.outermost

    def under(self, child: str, parent: str) -> float:
        """Time of ``child`` spans whose direct parent is a ``parent`` span."""
        rows = np.flatnonzero(self.sel(child) & (self.parent_row >= 0))
        rows = rows[self.ids[self.parent_row[rows]] == self.index[parent]]
        return float(self.dur[rows].sum())


def per_network_layer(table: SpanTable) -> dict[int, dict[str, float]]:
    """Matmul time, FLOPs and bytes per network layer and pass."""
    rows = np.flatnonzero(table.sel("numeric.matmul")
                          & (table.parent_row >= 0))
    parents = table.parent_row[rows]
    kinds = table.ids[parents]
    keep = np.isin(kinds, [table.index["model.forward"],
                           table.index["model.backward"]])
    rows, parents = rows[keep], parents[keep]
    out: dict[int, dict[str, float]] = {}
    if not len(rows):
        return out
    order = np.lexsort((table.spans[rows, START], parents))
    rows, parents = rows[order], parents[order]
    bounds = np.flatnonzero(np.diff(parents)) + 1
    for group in np.split(np.arange(len(rows)), bounds):
        parent = parents[group[0]]
        kind = table.names[table.ids[parent]].split(".")[1]
        count = len(group)
        n_layers = count if kind == "forward" else (count + 1) // 3
        passes = layer_passes(n_layers, kind)
        if len(passes) != count:
            continue
        for k, (layer, which) in zip(group, passes):
            r = rows[k]
            m, kk, n = (table.spans[r, A], table.spans[r, B],
                        table.spans[r, C])
            slot = out.setdefault(layer, {"fwd_s": 0.0, "bwd_s": 0.0,
                                          "flops": 0.0, "bytes": 0.0})
            slot["fwd_s" if which == "fwd" else "bwd_s"] += table.dur[r]
            slot["flops"] += 2.0 * m * kk * n
            slot["bytes"] += 8.0 * (m * kk + kk * n + m * n)
    return out


def layer_metrics(table: SpanTable, n_layers: int) -> dict[str, tuple]:
    """Every per-layer metric as name -> (value, unit)."""
    t = table
    s = t.spans
    out: dict[str, tuple] = {}

    mm = t.sel("numeric.matmul")
    m, k, n = s[mm, A], s[mm, B], s[mm, C]
    mm_s = t.time("numeric.matmul")
    flops = float((2.0 * m * k * n).sum())
    out["numeric.matmul_calls"] = (int(mm.sum()), "count")
    out["numeric.matmul_s"] = (mm_s, "s")
    out["numeric.matmul_flops"] = (flops, "flop")
    out["numeric.matmul_bytes"] = (float((8.0 * (m * k + k * n + m * n)).sum()),
                                   "B")
    out["numeric.matmul_gflops"] = (flops / mm_s / 1e9 if mm_s else 0.0,
                                    "GFLOP/s")
    out["numeric.softmax_ce_calls"] = (t.calls("numeric.softmax_ce"), "count")
    out["numeric.softmax_ce_s"] = (t.time("numeric.softmax_ce"), "s")
    out["numeric.rng_calls"] = (t.calls("numeric.rng"), "count")
    out["numeric.rng_s"] = (t.time("numeric.rng"), "s")

    fwd_bwd = ("model.forward", "model.backward")
    model_s = t.time(*fwd_bwd)
    out["model.forward_calls"] = (t.calls("model.forward"), "count")
    out["model.forward_s"] = (t.time("model.forward"), "s")
    out["model.backward_calls"] = (t.calls("model.backward"), "count")
    out["model.backward_s"] = (t.time("model.backward"), "s")
    out["model.rows_per_s"] = (
        float(t.col(A, *fwd_bwd).sum()) / model_s if model_s else 0.0, "rows/s")
    out["model.apply_mask_calls"] = (t.calls("model.apply_mask"), "count")
    out["model.apply_mask_s"] = (t.time("model.apply_mask"), "s")
    out["model.snapshot_save_s"] = (t.time("model.save_snapshot"), "s")
    out["model.snapshot_load_s"] = (t.time("model.load_snapshot"), "s")
    per_layer = per_network_layer(t)
    for layer in range(n_layers):
        slot = per_layer.get(layer, {"fwd_s": 0.0, "bwd_s": 0.0,
                                     "flops": 0.0, "bytes": 0.0})
        out[f"model.L{layer}.fwd_s"] = (slot["fwd_s"], "s")
        out[f"model.L{layer}.bwd_s"] = (slot["bwd_s"], "s")
        out[f"model.L{layer}.flops"] = (slot["flops"], "flop")
        out[f"model.L{layer}.bytes"] = (slot["bytes"], "B")

    train_rows = t.sel("train.train_sgd", "train.train_with_cfg")
    out["train.calls"] = (t.calls("train.train_sgd"), "count")
    out["train.epochs"] = (int(t.col(A, "train.train_sgd").sum()), "count")
    out["train.self_s"] = (float(t.self_t[train_rows].sum()), "s")
    out["train.evaluate_calls"] = (t.calls("train.evaluate"), "count")
    out["train.evaluate_s"] = (t.time("train.evaluate"), "s")

    lookups = t.col(TAG, "oracle.cached_oracle") == 1
    hits = t.col(A, "oracle.cached_oracle")[lookups]
    out["oracle.retrain_calls"] = (t.calls("oracle.retrain_reprune"), "count")
    out["oracle.retrain_s"] = (t.time("oracle.retrain_reprune"), "s")
    out["oracle.cache_lookups"] = (int(lookups.sum()), "count")
    out["oracle.cache_hits"] = (int(hits.sum()), "count")
    out["oracle.cache_hit_ratio"] = (
        float(hits.mean()) if len(hits) else 0.0, "ratio")
    out["oracle.save_s"] = (t.under("model.save_snapshot",
                                    "oracle.cached_oracle"), "s")
    out["oracle.load_s"] = (t.under("model.load_snapshot",
                                    "oracle.cached_oracle"), "s")

    grown = t.col(B, "core.unprune").sum()
    out["core.unprune_calls"] = (t.calls("core.unprune"), "count")
    out["core.iterations"] = (int(t.col(A, "core.unprune").sum()), "count")
    out["core.reinit_s"] = (t.time("core.reinit_pruned"), "s")
    out["core.grow_s"] = (t.time("core.grow"), "s")
    out["core.self_s"] = (float(t.self_t[t.sel("core.unprune")].sum()), "s")
    out["core.grown_entries"] = (int(t.col(A, "core.grow").sum()), "count")
    out["core.grow_kept_ratio"] = (
        float(t.col(C, "core.unprune").sum() / grown) if grown else 0.0,
        "ratio")

    out["unlearn.calls"] = (t.calls("unlearn.unlearn"), "count")
    out["unlearn.steps"] = (int(t.col(A, "unlearn.unlearn").sum()), "count")
    out["unlearn.gradient_ascent_s"] = (t.time("unlearn.gradient_ascent"), "s")
    out["unlearn.finetune_s"] = (t.time("unlearn.finetune"), "s")

    for module in ("prune", "metrics"):
        entry = t.module_entry(module)
        out[f"{module}.calls"] = (int(entry.sum()), "count")
        out[f"{module}.s"] = (float(t.dur[entry].sum()), "s")

    out["mia.sweep_calls"] = (t.calls("mia.ratio_sweep"), "count")
    out["mia.evaluate_calls"] = (t.calls("mia.mia_evaluate"), "count")
    out["mia.features_s"] = (t.time("mia.mia_features"), "s")
    out["mia.evaluate_self_s"] = (
        float(t.self_t[t.sel("mia.mia_evaluate")].sum()), "s")

    out["experiment.cells"] = (t.calls("experiment._unprune_cell"), "count")
    out["experiment.self_s"] = (
        float(t.self_t[t.in_module("experiment")].sum()), "s")
    out["experiment.emit_s"] = (
        t.time("experiment.emit_csv", "experiment.emit_json"), "s")

    out["data.build_s"] = (float(t.dur[t.module_entry("data")].sum()), "s")
    out["config.parse_s"] = (float(t.dur[t.module_entry("config")].sum()), "s")
    return out
