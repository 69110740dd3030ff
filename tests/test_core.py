import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unprune.core import (
    UnpruneConfig,
    grow_mask,
    grow_mask_structured,
    reinit_pruned,
    unprune,
)
from unprune.data import gen_blobs, split_delete
from unprune.errors import ConfigError, InputError
from unprune.experiment import cell_unprune
from unprune.model import init_model, mlp_specs
from unprune.numeric import SeededRng
from unprune.oracle import build_model
from unprune.prune import (
    prune_magnitude,
    prune_structured_l2,
    sparsity_of,
)
from unprune.unlearn import METHODS, UnlearnConfig


def pruned_model(seed=0, dims=(3, 10, 3), sparsity=0.5):
    model = init_model(mlp_specs(list(dims)), SeededRng(seed))
    prune_magnitude(model, sparsity)
    return model


def tiny_task(seed=0):
    rng = SeededRng(seed)
    data = gen_blobs(rng.split("d"), 30, 2, 2, 1.0)
    split = split_delete(data, 0.2, rng.split("s"))
    return data, split


def test_reinit_noop_on_dense_model():
    model = init_model(mlp_specs([3, 6, 3]), SeededRng(1))
    before = [w.copy() for w in model.weights]
    for strategy in ("original", "random"):
        reinit_pruned(model, strategy, SeededRng(2))
        for w, b in zip(model.weights, before):
            assert np.array_equal(w, b)


def test_reinit_original_restores_snapshot():
    model = pruned_model(3)
    reinit_pruned(model, "original", SeededRng(4))
    for w, m, s in zip(model.weights, model.masks, model.init_snapshot):
        holes = m == 0.0
        assert np.array_equal(w[holes], s[holes])
        assert np.all(w[holes] != 0.0)


def test_reinit_random_statistics():
    model = pruned_model(5, dims=(20, 60, 20), sparsity=0.6)
    kept_before = [w[m == 1.0].copy() for w, m in zip(model.weights, model.masks)]
    reinit_pruned(model, "random", SeededRng(6), random_init_std=0.01)
    holes = np.concatenate(
        [w[m == 0.0].ravel() for w, m in zip(model.weights, model.masks)]
    )
    assert abs(holes.mean()) < 0.002
    assert abs(holes.std() - 0.01) < 0.002
    for w, m, before in zip(model.weights, model.masks, kept_before):
        assert np.array_equal(w[m == 1.0], before)


def test_grow_mask_hand_case():
    # N=10, five masked entries with reinit magnitudes [.9,.1,.5,.3,.7]:
    # growing 10% flips exactly the 0.9 entry.
    model = init_model(mlp_specs([5, 2]), SeededRng(7))
    model.weights[0][...] = np.array([[0.9, 0.1, 0.5, 0.3, 0.7],
                                      [1.0, 1.0, 1.0, 1.0, 1.0]])
    model.masks[0][...] = np.array([[0.0, 0.0, 0.0, 0.0, 0.0],
                                    [1.0, 1.0, 1.0, 1.0, 1.0]])
    _, grown = grow_mask(model, 0.10)
    assert np.array_equal(grown, [0])
    assert model.masks[0][0, 0] == 1.0


def test_grow_mask_rounding_to_zero():
    model = pruned_model(8)
    masks = [m.copy() for m in model.masks]
    _, grown = grow_mask(model, 1e-6)
    assert len(grown) == 0
    for m, m0 in zip(model.masks, masks):
        assert np.array_equal(m, m0)


def test_grow_mask_candidates_are_masked_entries():
    model = pruned_model(9, dims=(4, 12, 4), sparsity=0.5)
    reinit_pruned(model, "original", SeededRng(10))
    masked_before = np.flatnonzero(model.flat_masks() == 0.0)
    _, grown = grow_mask(model, 0.2)
    assert np.all(np.isin(grown, masked_before))


def test_grow_mask_insufficient_candidates():
    model = pruned_model(11, dims=(3, 4, 3), sparsity=0.2)
    with pytest.raises(InputError):
        grow_mask(model, 0.9)


def test_grow_mask_structured_hand_case():
    model = init_model(mlp_specs([2, 2, 2]), SeededRng(12))
    model.weights[0][...] = 0.0
    model.masks[0][...] = 0.0
    model.weights[0][0] = [0.2, 0.0]
    model.weights[0][1] = [0.8, 0.0]
    _, grown = grow_mask_structured(model, 0.5)  # round(0.5 * 2) = 1 neuron
    assert np.array_equal(grown, [1])
    assert np.all(model.masks[0][1] == 1.0)
    assert np.all(model.masks[0][0] == 0.0)


def test_grow_mask_structured_rounding_and_errors():
    model = init_model(mlp_specs([2, 4, 2]), SeededRng(13))
    with pytest.raises(InputError):
        grow_mask_structured(model, 0.5)  # nothing pruned yet
    prune_structured_l2(model, 0.5)
    masks = [m.copy() for m in model.masks]
    _, grown = grow_mask_structured(model, 0.01)  # rounds to zero
    assert len(grown) == 0
    for m, m0 in zip(model.masks, masks):
        assert np.array_equal(m, m0)


def test_config_validation():
    good = UnpruneConfig(0.6, 0.05, 3, UnlearnConfig())
    good.validate()
    with pytest.raises(ConfigError):
        UnpruneConfig(0.6, 0.25, 3, UnlearnConfig()).validate()  # underflow
    with pytest.raises(ConfigError):
        UnpruneConfig(0.6, 0.05, 0, UnlearnConfig()).validate()
    with pytest.raises(ConfigError):
        UnpruneConfig(0.6, 0.05, 3, UnlearnConfig(), init_strategy="warm").validate()
    # Exact arithmetic boundary must not be rejected by float error.
    UnpruneConfig(0.3, 0.1, 3, UnlearnConfig()).validate()


def test_degenerate_loop_is_identity_on_mask():
    data, split = tiny_task(14)
    model = pruned_model(14, dims=(2, 10, 2), sparsity=0.5)
    mask_before = model.flat_masks()
    cfg = UnpruneConfig(0.5, 1e-6, 1, UnlearnConfig(method="noop"))
    model, trace = unprune(model, data, split, cfg, SeededRng(15))
    assert np.array_equal(model.flat_masks(), mask_before)
    assert trace.final_sparsity == 0.5


def test_trace_sparsity_sequence_reference_shape():
    # 2-64-32-2 has N=2240; s=0.6, p=0.05, T=3 gives exact decimals.
    data, split = tiny_task(16)
    model = build_model([2, 64, 32, 2], 16)
    prune_magnitude(model, 0.6)
    cfg = UnpruneConfig(0.6, 0.05, 3, UnlearnConfig(method="noop"))
    model, trace = unprune(model, data, split, cfg, SeededRng(17))
    sequence = [trace.initial_sparsity] + [row[1] for row in trace.rows]
    assert sequence == [0.6, 0.55, 0.5, 0.45]
    assert trace.final_sparsity == 0.6
    assert [r[4] for r in trace.rows] == [112, 112, 112]


def test_trace_to_csv(tmp_path):
    data, split = tiny_task(18)
    model = pruned_model(18, dims=(2, 10, 2), sparsity=0.5)
    cfg = UnpruneConfig(0.5, 0.05, 2, UnlearnConfig(method="noop"))
    _, trace = unprune(model, data, split, cfg, SeededRng(19))
    path = tmp_path / "trace.csv"
    trace.to_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,sparsity,ua,ta,grown_count"
    assert len(lines) == 4  # 2 iterations + final row


def test_every_method_runs_through_the_loop():
    data, split = tiny_task(20)
    for method in METHODS:
        model = pruned_model(20, dims=(2, 10, 2), sparsity=0.5)
        cfg = UnpruneConfig(
            0.5, 0.05, 2,
            UnlearnConfig(method=method, steps=2, rate=1e-3,
                          fisher_noise_scale=1e-3, batch_size=16),
        )
        model, trace = unprune(model, data, split, cfg, SeededRng(21))
        assert trace.final_sparsity == pytest.approx(0.5, abs=1.0 / 20)


def test_unprune_deterministic():
    data, split = tiny_task(22)
    outs = []
    for _ in range(2):
        model = pruned_model(22, dims=(2, 10, 2), sparsity=0.5)
        cfg = UnpruneConfig(0.5, 0.1, 2,
                            UnlearnConfig(method="finetune", steps=5, rate=0.05,
                                          batch_size=16))
        model, _ = unprune(model, data, split, cfg, SeededRng(23))
        outs.append(np.concatenate([model.flat_weights(), model.flat_masks()]))
    assert np.array_equal(outs[0], outs[1])


@pytest.mark.parametrize("method", METHODS)
def test_unprune_sets_blas_threads_once(blas_threads, method):
    data, split = tiny_task(22)
    model = pruned_model(22, dims=(2, 10, 2), sparsity=0.5)
    cfg = UnpruneConfig(0.5, 0.1, 2,
                        UnlearnConfig(method=method, steps=5, rate=0.05,
                                      batch_size=16))
    unprune(model, data, split, cfg, SeededRng(23))
    assert blas_threads.sets == [1, 3]


def test_growth_legality_and_restoration_structured():
    data, split = tiny_task(24)
    model = build_model([2, 8, 8, 2], 24)
    prune_structured_l2(model, 0.5)
    pruned_counts = [int(m.size - m.sum()) for m in model.masks]
    cfg = UnpruneConfig(0.5, 0.1, 2,
                        UnlearnConfig(method="finetune", steps=3, rate=0.05,
                                      batch_size=16))
    model, trace = unprune(model, data, split, cfg, SeededRng(25),
                           mode="structured")
    assert [int(m.size - m.sum()) for m in model.masks] == pruned_counts
    assert all(len(g) > 0 for g in trace.grown)


def test_mask_change_capability(ref_cfg, ref_runs):
    # With a non-noop unlearner the output mask differs from the input mask.
    run = ref_runs[0]
    sparsity = ref_cfg.sparsities[0]
    pruned = run.pruned[sparsity]
    model = pruned.clone()
    cell_unprune(ref_cfg, 0, sparsity, "gradient_ascent", model,
                 run.train_data, run.test_data, run.split)
    assert not np.array_equal(model.flat_masks(), pruned.flat_masks())


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_sparsity_restored_for_random_configs(seed):
    rng = SeededRng(seed)
    hidden = int(rng.integers(6, 14, 1)[0])
    s = float(rng.uniform(0.3, 0.7, 1)[0])
    p = float(rng.uniform(0.02, 0.1, 1)[0])
    t = int(rng.integers(1, 4, 1)[0])
    if s - t * p < 0:
        return
    model = init_model(mlp_specs([2, hidden, 2]), SeededRng(seed + 1))
    prune_magnitude(model, s)
    zeros_before = sparsity_of(model).zero_mask_entries
    data, split = tiny_task(seed % 7)
    cfg = UnpruneConfig(s, p, t, UnlearnConfig(method="noop"))
    model, _ = unprune(model, data, split, cfg, SeededRng(seed + 2))
    assert sparsity_of(model).zero_mask_entries == zeros_before


def test_unprune_per_layer_scope_keeps_layer_counts():
    # The final re-prune uses the loop's scope: a per-layer pruned model
    # comes back with each layer's own zero count, not a global re-ranking.
    data, split = tiny_task(26)
    model = build_model([2, 12, 8, 2], 26)
    prune_magnitude(model, 0.5, scope="per_layer")
    before = [p.zeros for p in sparsity_of(model).per_layer]
    cfg = UnpruneConfig(0.5, 0.1, 2, UnlearnConfig(method="noop"))
    model, _ = unprune(model, data, split, cfg, SeededRng(27),
                       scope="per_layer")
    assert [p.zeros for p in sparsity_of(model).per_layer] == before
