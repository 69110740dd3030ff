import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unprune.errors import InputError
from unprune.model import init_model
from unprune.numeric import SeededRng
from unprune.prune import (
    neuron_mask,
    prune_magnitude,
    prune_structured_l2,
    sparsity_of,
)


def model_with_weights(rows):
    """Single-layer model whose weight matrix is set to the given rows."""
    rows = np.asarray(rows, dtype=np.float64)
    model = init_model([rows.shape[1], rows.shape[0]], SeededRng(0))
    model.weights[0][...] = rows
    return model


def test_magnitude_hand_case():
    model = model_with_weights([[0.1, -0.5, 0.3, -0.2]])
    prune_magnitude(model, 0.5)
    assert np.array_equal(model.masks[0], [[0.0, 1.0, 1.0, 0.0]])
    assert np.array_equal(model.weights[0], [[0.0, -0.5, 0.3, 0.0]])


def test_magnitude_noop_at_current_sparsity():
    model = model_with_weights([[0.1, -0.5, 0.3, -0.2]])
    prune_magnitude(model, 0.5)
    masks = [m.copy() for m in model.masks]
    prune_magnitude(model, 0.5)
    for m, m0 in zip(model.masks, masks):
        assert np.array_equal(m, m0)


def test_magnitude_target_below_current_rejected():
    model = model_with_weights([[0.1, -0.5, 0.3, -0.2]])
    prune_magnitude(model, 0.5)
    with pytest.raises(InputError):
        prune_magnitude(model, 0.25)


def test_magnitude_exact_count_on_thousand_weights():
    # N = 10*50 + 50*10 = 1000; target 0.6 leaves exactly 600 zeros.
    model = init_model([10, 50, 10], SeededRng(1))
    prune_magnitude(model, 0.6)
    report = sparsity_of(model)
    assert report.total_weights == 1000
    assert report.zero_mask_entries == 600


def test_magnitude_per_layer_scope():
    model = init_model([10, 50, 10], SeededRng(2))
    prune_magnitude(model, 0.6, scope="per_layer")
    for m in model.masks:
        assert m.size - m.sum() == 300  # round(0.6 * 500) in each layer


def test_magnitude_tie_break_lowest_flat_index():
    model = model_with_weights([[0.5, 0.5, 0.5, 0.5]])
    prune_magnitude(model, 0.5)
    assert np.array_equal(model.masks[0], [[0.0, 0.0, 1.0, 1.0]])


def test_structured_hand_case():
    # 3 hidden units feeding 2 outputs so the rows are hidden neurons.
    model = init_model([2, 3, 2], SeededRng(3))
    model.weights[0][...] = [[1.0, 0.0], [0.1, 0.0], [0.5, 0.0]]
    prune_structured_l2(model, 1.0 / 3.0)
    assert np.array_equal(model.masks[0], [[1, 1], [0, 0], [1, 1]])
    assert model.biases[0][1] == 0.0


def test_structured_floor_means_no_change():
    model = init_model([2, 5, 2], SeededRng(4))
    masks = [m.copy() for m in model.masks]
    prune_structured_l2(model, 0.1)  # floor(0.5) == 0 neurons
    for m, m0 in zip(model.masks, masks):
        assert np.array_equal(m, m0)


def test_structured_prunes_whole_rows():
    model = init_model([3, 6, 4, 2], SeededRng(5))
    prune_structured_l2(model, 0.5)
    for l in (0, 1):
        for row in range(model.weights[l].shape[0]):
            row_mask = model.masks[l][row]
            assert np.all(row_mask == row_mask[0])  # all-or-nothing rows


def test_structured_count_on_2_4_2():
    model = init_model([2, 4, 2], SeededRng(6))
    prune_structured_l2(model, 0.25)  # one of four hidden neurons
    report = sparsity_of(model)
    assert model.masks[0].size - model.masks[0].sum() == 2  # its two inputs
    assert report.total_weights == 16
    assert report.zero_mask_entries == 2


def test_structured_rejects_bad_fraction_and_archs():
    model = init_model([2, 4, 2], SeededRng(7))
    with pytest.raises(InputError):
        prune_structured_l2(model, 0.0)
    single = init_model([2, 2], SeededRng(7))
    with pytest.raises(InputError):
        prune_structured_l2(single, 0.5)


def test_sparsity_report_fresh_and_after_prune():
    model = init_model([4, 10, 4], SeededRng(8))
    assert sparsity_of(model).sparsity == 0.0
    prune_magnitude(model, 0.6)
    report = sparsity_of(model)
    assert abs(report.sparsity - 0.6) <= 1.0 / report.total_weights
    assert sum(m.size - m.sum() for m in model.masks) == report.zero_mask_entries


def test_neuron_mask_tracks_structured_pruning():
    model = init_model([2, 4, 3, 2], SeededRng(9))
    assert neuron_mask(model).sum() == 7
    prune_structured_l2(model, 0.5)
    assert neuron_mask(model).sum() == 7 - 2 - 1


@given(st.integers(0, 1000), st.floats(0.1, 0.6), st.floats(0.61, 0.95))
@settings(max_examples=20, deadline=None)
def test_monotonicity_never_resurrects(seed, first, second):
    model = init_model([3, 9, 3], SeededRng(seed))
    prune_magnitude(model, first)
    masked_once = model.flat_masks() == 0.0
    prune_magnitude(model, second)
    masked_twice = model.flat_masks() == 0.0
    assert np.all(masked_twice[masked_once])


@given(st.integers(0, 500), st.integers(1, 5))
@settings(max_examples=20, deadline=None)
def test_tie_breaking_with_duplicated_values(seed, dup):
    # Duplicate every magnitude; pruning must remove ascending flat indices
    # within each tied group.
    rng = SeededRng(seed)
    base = np.repeat(np.abs(rng.normal(6)) + 0.1, dup)
    model = init_model([len(base), 1], SeededRng(0))
    model.weights[0][...] = base.reshape(1, -1)
    prune_magnitude(model, 0.5)
    mask = model.masks[0].ravel()
    for value in np.unique(base):
        group = np.flatnonzero(base == value)
        kept = mask[group]
        # Any pruned entry in a tie group precedes any kept entry.
        assert np.all(np.diff(kept) >= 0)
