"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Paper-scale magnitudes are not reproducible on the desk-scale
reference tasks; each criterion checks the documented direction or exact
property at its stated tolerance.
"""

import hashlib
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from unprune.core import UnpruneConfig, unprune
from unprune.data import gen_blobs, split_delete
from unprune.experiment import (
    _scores,
    cell_unprune,
    model_cache_dir,
    run_experiment,
)
from unprune.metrics import MaskPair, iom, iou, kl_masked_weights, uom
from unprune.mia import mia_evaluate, ratio_sweep
from unprune.model import backward, forward, init_model
from unprune.numeric import SeededRng, softmax_cross_entropy
from unprune.oracle import retrain_reprune, train_model
from unprune.prune import prune_magnitude, sparsity_of
from unprune.train import TrainCfg
from unprune.unlearn import UnlearnConfig


def _verdict(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status} - {detail}")
    return ok


def test_criterion_01_metric_identities():
    """IoM/UoM/IoU ranges and exact identities on 10,000 random mask pairs."""
    t0 = time.perf_counter()
    rng = SeededRng(1001)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(2, 40, 1)[0])
        u = (rng.uniform(0, 1, n) < rng.uniform(0.05, 0.95, 1)[0]).astype(float)
        r = (rng.uniform(0, 1, n) < rng.uniform(0.05, 0.95, 1)[0]).astype(float)
        p = MaskPair(u, r)
        i, un, j = iom(p), uom(p), iou(p)
        assert 0.0 <= i <= 1.0 and 0.0 <= un <= 1.0
        assert i <= un
        if math.isnan(j):
            assert un == 0.0
            continue
        assert 0.0 <= j <= 1.0
        worst = max(worst, abs(j * un - i))
        assert abs(j * un - i) <= 1e-12
        assert (j == 1.0) == (np.array_equal(u, r) and un > 0)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    assert _verdict(1, ok, f"10,000 pairs, max |iou*uom-iom| = {worst:.2e}, "
                           f"{elapsed:.2f}s")


def _pre_activations(model, x):
    """Each layer's pre-activation ``x @ W.T + b``, with ReLU between layers."""
    pre = []
    for w, b in zip(model.weights, model.biases):
        pre.append(x @ w.T + b)
        x = np.maximum(pre[-1], 0.0)
    return pre


def test_criterion_02_gradient_fidelity():
    """Analytic gradients of pruned models match central differences, 100
    random configs."""
    t0 = time.perf_counter()
    step = 1e-5
    worst = 0.0
    checked = 0
    config_rng = SeededRng(2002)

    for case in range(100):
        dims = [3, int(config_rng.integers(4, 9, 1)[0]),
                int(config_rng.integers(3, 7, 1)[0])]
        model = init_model(dims, SeededRng(3000 + case))
        sparsity = float(config_rng.uniform(0.0, 0.6, 1)[0])
        if sparsity > 0.01:
            prune_magnitude(model, sparsity)
        # Resample inputs and biases until all pre-activations sit away from
        # relu kinks (dead units are otherwise pinned at zero), keeping the
        # finite-difference oracle valid at this step size.
        data_rng = SeededRng(4000 + case)
        for _ in range(50):
            for b in model.biases:
                b[...] = data_rng.normal(b.size, 0.0, 0.1)
            x = data_rng.normal(4 * 3).reshape(4, 3)
            labels = data_rng.integers(0, dims[-1], 4)
            if min(float(np.abs(z).min())
                   for z in _pre_activations(model, x)) >= 1e-3:
                break
        else:
            continue
        _, grads = backward(model, x, labels)

        def loss_at():
            return softmax_cross_entropy(forward(model, x), labels)[0]

        for w, g in zip(model.weights + model.biases,
                        grads.weights + grads.biases):
            flat_w = w.ravel()
            flat_g = g.ravel()
            fd = np.zeros_like(flat_g)
            for i in range(flat_w.size):
                orig = flat_w[i]
                flat_w[i] = orig + step
                up = loss_at()
                flat_w[i] = orig - step
                down = loss_at()
                flat_w[i] = orig
                fd[i] = (up - down) / (2 * step)
            err = np.linalg.norm(flat_g - fd) / max(np.linalg.norm(fd), 1e-8)
            worst = max(worst, err)
            assert err < 1e-4
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0 and checked == 100
    assert _verdict(2, ok, f"{checked} configs, worst rel err = {worst:.2e}, "
                           f"{elapsed:.1f}s")


def test_criterion_03_data_dependence(ref_cfg, ref_grid):
    """Same seed, 10% deleted: pruned topologies visibly diverge (IoU < 0.95)."""
    report, _ = ref_grid
    values = [row.iou for row in
              report.select(method="original", sparsity=ref_cfg.sparsities[0])]
    hits = sum(v < 0.95 for v in values)
    ok = hits >= 4
    assert _verdict(3, ok, "IoU(original, oracle masks) = "
                    + ", ".join(f"{v:.3f}" for v in values)
                    + f" -> {hits}/5 below 0.95")


def _unpruning_gains(report, runs, sparsity, number):
    """Per method: the grid's mean IoM and UA gap to the oracle, against the
    original pruned model's; ok when IoM rises and the gap does not widen.

    The gaps are compared as counts of forget rows, so equal means are
    equal whatever the rounding of the float UAs.
    """
    all_ok = True
    details = []
    original = report.select(method="original", sparsity=sparsity)
    oracle = report.select(method="oracle", sparsity=sparsity)

    def gap_rows(rows):
        return [round(abs(r.ua - o.ua) * len(runs[r.seed].split.forget_indices))
                for r, o in zip(rows, oracle)]

    for method in ("gradient_ascent", "finetune"):
        unpruned = report.select(method=method, sparsity=sparsity)
        iom_orig = [row.iom for row in original]
        iom_u = [row.iom for row in unpruned]
        gap_orig = [abs(r.ua - o.ua) for r, o in zip(original, oracle)]
        gap_u = [abs(r.ua - o.ua) for r, o in zip(unpruned, oracle)]
        for i, row in enumerate(unpruned):
            print(f"    [crit {number}] {method} seed {row.seed}: IoM "
                  f"{iom_orig[i]:.4f} -> {iom_u[i]:.4f}, UA gap "
                  f"{gap_orig[i]:.3f} -> {gap_u[i]:.3f}")
        better_iom = np.mean(iom_u) > np.mean(iom_orig)
        better_ua = sum(gap_rows(unpruned)) <= sum(gap_rows(original))
        all_ok &= better_iom and better_ua
        details.append(
            f"{method}: dIoM={np.mean(iom_u) - np.mean(iom_orig):+.4f}, "
            f"gap {np.mean(gap_orig):.3f}->{np.mean(gap_u):.3f}"
        )
    return all_ok, "; ".join(details)


def test_criterion_04_unpruning_beats_doing_nothing(ref_cfg, ref_grid,
                                                     ref_runs):
    """Mean IoM(M_u, oracle) > mean IoM(M, oracle) and UA gap not worse."""
    ok, detail = _unpruning_gains(ref_grid[0], ref_runs, ref_cfg.sparsities[0],
                                  4)
    assert _verdict(4, ok, detail)


def test_criterion_05_sparsity_restoration():
    """50 randomized valid configs: final sparsity equals s within 1/N."""
    t0 = time.perf_counter()
    rng = SeededRng(5005)
    data = gen_blobs(SeededRng(55).split("d"), 40, 2, 2, 1.0)
    split = split_delete(data, 0.15, SeededRng(55).split("s"))
    methods = ("noop", "gradient_ascent", "finetune", "fisher_forgetting")
    checked = 0
    for case in range(50):
        hidden = int(rng.integers(5, 20, 1)[0])
        s = float(rng.uniform(0.25, 0.8, 1)[0])
        p = float(rng.uniform(0.01, 0.12, 1)[0])
        t = int(rng.integers(1, 4, 1)[0])
        if s - t * p < 0:
            p = s / (t + 1)
        model = init_model([2, hidden, 2], SeededRng(6000 + case))
        prune_magnitude(model, s)
        target_zeros = sparsity_of(model).zero_mask_entries
        cfg = UnpruneConfig(
            s, p, t,
            UnlearnConfig(method=methods[case % 4], steps=2, rate=1e-3,
                          fisher_noise_scale=1e-3),
        )
        model, trace = unprune(model, data, split, cfg, SeededRng(7000 + case))
        assert sparsity_of(model).zero_mask_entries == target_zeros, case
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 50 and elapsed < 300.0
    assert _verdict(5, ok, f"{checked}/50 randomized configs restored exactly, "
                           f"{elapsed:.1f}s")


def test_criterion_06_kl_ground_truth(ref_cfg, ref_grid, ref_runs,
                                     ref_oracles):
    """Self-KL is exactly 0; KL(original, oracle) non-decreasing in sparsity."""
    self_kl = kl_masked_weights(ref_oracles[0], ref_oracles[0])
    assert self_kl == 0.0
    wins = 0
    per_seed = []
    cache_dir = model_cache_dir(str(ref_grid[1]))
    for seed, run in ref_runs.items():
        # Each sparsity's oracle prunes the model the grid trained on the
        # retained rows, read from the grid's cache.
        retained, _, _, hit = train_model(
            cache_dir, run.train_data, run.split.retain_indices,
            ref_cfg.arch_dims(), ref_cfg.train, seed)
        assert hit, f"seed {seed}: retained model not cached"
        kls = []
        for sparsity in (0.4, ref_cfg.sparsities[0], 0.95):
            pruned, oracle = run.dense.clone(), retained.clone()
            prune_magnitude(pruned, sparsity)
            prune_magnitude(oracle, sparsity)
            kls.append(kl_masked_weights(pruned, oracle))
        wins += kls[0] <= kls[1] <= kls[2]
        per_seed.append("->".join(f"{k:.3f}" for k in kls))
    ok = wins >= 4
    assert _verdict(6, ok, f"self-KL = {self_kl}; non-decreasing in {wins}/5 "
                           f"seeds ({'; '.join(per_seed)})")


def test_criterion_07_init_strategy_ordering(ref_cfg, ref_grid, ref_runs,
                                            ref_pruned, ref_oracles):
    """Original-initialization un-pruning matches or beats random init on IoM."""
    sparsity = ref_cfg.sparsities[0]
    # The grid's gradient ascent cells re-initialize from the original init.
    means = {"original": float(np.mean([
        row.iom for row in ref_grid[0].select(method="gradient_ascent",
                                              sparsity=sparsity)]))}
    cfg = replace(ref_cfg, init_strategy="random")
    values = []
    # Seeds whose random-init un-pruned mask is the pruned mask it started
    # from: on those the random arm did nothing to the topology.
    unmoved = 0
    for seed, run in ref_runs.items():
        model = ref_pruned[seed].clone()
        cell_unprune(cfg, seed, sparsity, "gradient_ascent", model,
                     run.train_data, run.test_data, run.split)
        unmoved += np.array_equal(model.flat_masks(),
                                  ref_pruned[seed].flat_masks())
        values.append(_scores(cfg, model, (ref_oracles[seed],), run.train_data,
                              run.test_data, run.split)[0]["iom"])
    means["random"] = float(np.mean(values))
    ok = means["original"] >= means["random"]
    detail = (f"mean IoM original={means['original']:.4f} vs "
              f"random={means['random']:.4f}; random-init mask equals the "
              f"pruned mask on {unmoved}/{len(ref_runs)} seeds")
    if not ok:
        # The criterion downgrades to qualitative when the ordering fails:
        # raw values are reported either way.
        _verdict(7, False, detail + " (qualitative: ordering not met)")
        pytest.xfail(f"init ordering failed qualitatively: {detail}")
    assert _verdict(7, ok, detail)


def test_criterion_08_running_time_ordering(ref_cfg, ref_runs, ref_pruned):
    """Un-pruning (GA, T=3) costs at most half of retraining+repruning."""
    run = ref_runs[0]
    sparsity = ref_cfg.sparsities[0]
    t0 = time.perf_counter()
    retrain_reprune(run.train_data, run.split, ref_cfg.arch_dims(),
                    ref_cfg.train, sparsity, 0)
    oracle_wall = time.perf_counter() - t0
    model = ref_pruned[0].clone()
    t0 = time.perf_counter()
    cell_unprune(ref_cfg, 0, sparsity, "gradient_ascent", model,
                 run.train_data, run.test_data, run.split)
    unpruning_wall = time.perf_counter() - t0
    ok = unpruning_wall <= 0.5 * oracle_wall
    assert _verdict(8, ok, f"unprune {unpruning_wall:.3f}s vs retrain+reprune "
                           f"{oracle_wall:.3f}s (ratio "
                           f"{unpruning_wall / oracle_wall:.3f})")


def test_criterion_09_mia_fragility(ref_cfg, ref_runs):
    """Shadow-ratio sweep swings correctness >= 0.2; chance at ratio 1.0."""
    run = ref_runs[0]
    reports = ratio_sweep(
        run.dense, run.train_data, run.split.forget_indices,
        run.test_data, np.arange(40), ref_cfg.mia_ratios,
        SeededRng(0).split("mia"),
    )
    corr = [r.correctness for r in reports]
    spread = max(corr) - min(corr)

    # Well-generalized model: separable blobs, short clean training.
    rng = SeededRng(100)
    train = gen_blobs(rng.split("data-train"), 200, 2, 2, 0.5)
    test = gen_blobs(rng.split("data-test"), 250, 2, 2, 0.5)
    split = split_delete(train, 0.25, rng.split("delete"))
    model = train_model(None, train, np.arange(train.n), ref_cfg.arch_dims(),
                        TrainCfg(300, 0.5), 100)[0]
    report = mia_evaluate(model, train, split.forget_indices, test,
                          np.arange(100), 1.0, SeededRng(100).split("mia-1"))
    ok = spread >= 0.2 and 0.45 <= report.correctness <= 0.55
    assert _verdict(9, ok, f"sweep spread = {spread:.3f} (>= 0.2); "
                           f"well-generalized correctness@1.0 = "
                           f"{report.correctness:.3f}")


# SHA-256 of the reference grid's outputs (all five seeds, no timing). A
# change that moves these numbers must re-pin them and say why.
REFERENCE_GRID_SHA256 = {
    "results.csv":
        "e3e617b4a7d9e86996b7ebe126e4593c119ddd51418251d9ea5dfc776c4b3288",
    "results.json":
        "5cdde921f9f9ead236876f80f3b04b67a74c60c125793b472d03bfd0efd07300",
    "traces/trace_seed0_s0.6_finetune.csv":
        "fe331664c6d108c8b1d5f70d3fd31557961ea006508c14ade3c3d8e5329cac7f",
    "traces/trace_seed0_s0.6_gradient_ascent.csv":
        "e1328b3b132737323c7bf5d568faa73b794b9c0f0fa249d4ae57eb7a558adb38",
}


def test_criterion_10_determinism(ref_cfg, ref_grid, tmp_path):
    """Two runs of the reference grid emit byte-identical CSV and JSON."""
    report_a, out_a = ref_grid
    out_b = tmp_path / "b"
    report_b = run_experiment(replace(ref_cfg, record_timing=False),
                              out_dir=str(out_b))
    assert not report_b.errors
    for name, digest in REFERENCE_GRID_SHA256.items():
        data = (out_a / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name
    same_csv = (out_a / "results.csv").read_bytes() == \
               (out_b / "results.csv").read_bytes()
    same_json = (out_a / "results.json").read_bytes() == \
                (out_b / "results.json").read_bytes()
    ok = same_csv and same_json
    assert _verdict(10, ok, f"byte-identical CSV: {same_csv}, "
                            f"JSON: {same_json} "
                            f"({len(report_a.rows)} rows)")


def test_criterion_11_structured_variant(struct_cfg, struct_grid, struct_runs,
                                         struct_pruned):
    """Neuron-level analogues of criteria 4-5 on the 2-32-32-2 network."""
    sparsity = struct_cfg.sparsities[0]
    for method in ("gradient_ascent", "finetune"):
        for seed, run in struct_runs.items():
            pruned = struct_pruned[seed]
            model = pruned.clone()
            cell_unprune(struct_cfg, seed, sparsity, method, model,
                         run.train_data, run.test_data, run.split)
            # Criterion 5 analogue: per-layer pruned counts restored exactly.
            assert ([int(m.size - m.sum()) for m in model.masks]
                    == [int(m.size - m.sum()) for m in pruned.masks])
    ok, detail = _unpruning_gains(struct_grid[0], struct_runs, sparsity, 11)
    assert _verdict(11, ok, detail)
