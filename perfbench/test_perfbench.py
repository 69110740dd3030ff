"""Tests of the benchmark's own helpers.

Run from the root of the checkout: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import importlib
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _span(name, sid, parent, start, end, pid=1, a=0, b=0, c=0):
    row = np.zeros(tracing.WIDTH)
    row[[tracing.NAME, tracing.ID, tracing.PARENT, tracing.START, tracing.END,
         tracing.PID, tracing.A, tracing.B, tracing.C]] = (
        name, sid, parent, start, end, pid, a, b, c)
    return row


@pytest.fixture(scope="module")
def pkg():
    return {name: importlib.import_module(f"unprune.{name}")
            for name in run.MODULES}


def test_self_time_subtracts_union_of_children():
    spans = np.array([
        _span(0, 0, -1, 0.0, 10.0),   # root
        _span(0, 1, 0, 1.0, 4.0),     # child
        _span(0, 2, 0, 3.0, 6.0),     # child overlapping the first
        _span(0, 3, 0, 8.0, 12.0),    # child running past its parent's end
        _span(0, 4, 1, 2.0, 3.0),     # grandchild
        _span(0, 1, -1, 0.0, 5.0, pid=2),  # same id, other process: a root
    ])
    self_t = tracing.self_times(spans)
    # Root: 10 - |[1, 6] U [8, 10]| = 10 - 7.
    assert self_t.tolist() == [3.0, 2.0, 3.0, 4.0, 1.0, 5.0]


def test_percentile_needs_ten_samples_beyond():
    assert stats.pick_percentile(list(range(99)), 0.9) == (None, 99, 9)
    value, n, beyond = stats.pick_percentile(list(range(100)), 0.9)
    assert (value, n, beyond) == (89.0, 100, 10)
    line = stats.describe_percentile("cell_p90_ms", [0.001] * 8, 0.9, 1e3,
                                     "ms")
    assert "n/a" in line and "8 samples" in line
    line = stats.describe_percentile("cell_p90_ms", [0.001] * 100, 0.9, 1e3,
                                     "ms")
    assert line.startswith("cell_p90_ms: 1.0000 ms") and "100 samples" in line


def test_corrupted_pin_counts_as_a_failure():
    digests = {"results.csv": "a" * 64, "results.json": "b" * 64}
    good = workloads.Checks("struct_grid_warm", workloads.DEFAULT_SEED,
                            {"struct_grid_warm": dict(digests)})
    good.digests("results", digests)
    passes = [{"cells": 4, "failed_cells": 0}]
    assert run.tally(passes, good) == (4, 0)

    corrupted = dict(digests, **{"results.csv": "0" * 64})
    bad = workloads.Checks("struct_grid_warm", workloads.DEFAULT_SEED,
                           {"struct_grid_warm": corrupted})
    bad.digests("results", digests)
    attempted, failed = run.tally(passes, bad)
    assert failed / attempted > 0

    # Other seeds are not pinned, but repeats must still be identical.
    other = workloads.Checks("struct_grid_warm", 7, {"struct_grid_warm": corrupted})
    other.digests("results", digests)
    assert other.failures == []
    other.digests("results", corrupted)
    assert len(other.failures) == 1


def test_wrappers_are_gone_after_a_traced_call(pkg):
    originals = {(id(owner), attr): owner.__dict__[attr]
                 for owner, attr, _, _ in layers.targets(pkg)}
    targets = layers.targets(pkg)
    tr = tracing.Tracer(layers.span_names(targets))
    modules = list(pkg.values())
    dims = [2, 32, 32, 2]
    model = pkg["oracle"].build_model(dims, 0)
    x = np.ones((5, 2))
    y = np.zeros(5, dtype=np.int64)
    tr.install(targets, modules)
    try:
        assert tracing.wrapped_attributes(modules)
        pkg["train"].backward(model, x, y)
    finally:
        tr.uninstall()
    assert tracing.wrapped_attributes(modules) == []
    for owner, attr, _, _ in layers.targets(pkg):
        assert owner.__dict__[attr] is originals[(id(owner), attr)]
    assert pkg["train"].backward is pkg["model"].backward

    table = layers.SpanTable(tr.collect(), tr.names)
    assert table.calls("model.backward") == 1
    assert table.calls("numeric.matmul") == 8
    per_layer = layers.per_network_layer(table)
    for layer, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        # Forward z = x W^T, dW = delta^T x and, past layer 0, dX = delta W.
        flops = 2 * 5 * fan_in * fan_out * (3 if layer else 2)
        assert per_layer[layer]["flops"] == flops


def test_layer_pass_order():
    assert layers.layer_passes(3, "forward") == [(0, "fwd"), (1, "fwd"),
                                                 (2, "fwd")]
    assert layers.layer_passes(3, "backward")[3:] == [
        (2, "dw"), (2, "dx"), (1, "dw"), (1, "dx"), (0, "dw")]


def test_paused_calls_are_not_traced_and_results_are_kept(pkg):
    numeric = pkg["numeric"]
    modules = list(pkg.values())
    target = [(numeric, "round_count", "numeric.round_count", None)]
    tr = tracing.Tracer(["numeric.round_count"])
    tr.keep_result("numeric.round_count")
    tr.install(target, modules)
    try:
        numeric.round_count(1.5)
        assert tr.take("numeric.round_count") == 2
        assert tr.take("numeric.round_count") is None
        with tr.paused():
            assert tracing.wrapped_attributes(modules) == []
            numeric.round_count(2.5)
        assert tracing.wrapped_attributes(modules)
        assert tr.take("numeric.round_count") is None
    finally:
        tr.uninstall()
    assert tracing.wrapped_attributes(modules) == []
    assert len(tr.collect()) == 1
