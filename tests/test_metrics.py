import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unprune.errors import InputError
from unprune.metrics import (
    BoundProxyReport,
    MaskPair,
    bound_proxy,
    iom,
    iou,
    kl_masked_weights,
    uom,
)
from unprune.model import GradientSet, init_model
from unprune.numeric import SeededRng
from unprune.unlearn import fisher_diag

binary_arrays = st.integers(2, 60).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
    )
)


def pair(u, r):
    return MaskPair(np.asarray(u, dtype=float), np.asarray(r, dtype=float))


def test_hand_counts():
    p = pair([1, 1, 0, 0], [1, 0, 1, 0])
    assert iom(p) == 0.25
    assert uom(p) == 0.75
    assert iou(p) == pytest.approx(1.0 / 3.0)


def test_identical_all_ones():
    p = pair([1, 1, 1, 1], [1, 1, 1, 1])
    assert iom(p) == 1.0
    assert iou(p) == 1.0


def test_disjoint_supports():
    p = pair([1, 1, 0, 0], [0, 0, 1, 1])
    assert iom(p) == 0.0
    assert uom(p) == 1.0
    assert iou(p) == 0.0


def test_identical_half_dense_masks():
    p = pair([1, 0, 1, 0], [1, 0, 1, 0])
    assert uom(p) == 0.5
    assert iou(p) == 1.0


def test_complementary_masks_cover_everything():
    p = pair([1, 0, 1, 0], [0, 1, 0, 1])
    assert uom(p) == 1.0


def test_empty_union_is_nan():
    assert math.isnan(iou(pair([0, 0], [0, 0])))


def test_mask_pair_validation():
    with pytest.raises(InputError):
        pair([1, 0], [1, 0, 1])
    with pytest.raises(InputError):
        pair([1, 0.5], [1, 0])


@given(binary_arrays)
@settings(max_examples=200, deadline=None)
def test_metric_identities(masks):
    u, r = masks
    p = pair(u, r)
    i, un = iom(p), uom(p)
    assert 0.0 <= i <= 1.0
    assert 0.0 <= un <= 1.0
    assert i <= un
    j = iou(p)
    if math.isnan(j):
        assert un == 0.0
    else:
        assert abs(j * un - i) < 1e-12
        assert (j == 1.0) == (np.array_equal(p.mask_u, p.mask_r) and un > 0)


@given(binary_arrays)
@settings(max_examples=100, deadline=None)
def test_symmetry_and_permutation_equivariance(masks):
    u, r = masks
    a, b = pair(u, r), pair(r, u)
    assert iom(a) == iom(b)
    assert uom(a) == uom(b)
    j1, j2 = iou(a), iou(b)
    assert (math.isnan(j1) and math.isnan(j2)) or j1 == j2
    perm = SeededRng(0).permutation(len(u))
    c = pair(np.asarray(u)[perm], np.asarray(r)[perm])
    assert iom(c) == iom(a)
    assert uom(c) == uom(a)


def random_model(seed, dims=(3, 6, 3), sparsity=0.4):
    from unprune.prune import prune_magnitude

    model = init_model(list(dims), SeededRng(seed))
    for w in model.weights:
        w += SeededRng(seed + 1).normal(w.size, 0.0, 0.3).reshape(w.shape)
    prune_magnitude(model, sparsity)
    return model


def test_kl_self_is_exactly_zero():
    model = random_model(1)
    assert kl_masked_weights(model, model) == 0.0


def test_kl_asymmetric():
    a, b = random_model(2), random_model(5)
    assert kl_masked_weights(a, b) != kl_masked_weights(b, a)


def test_kl_closed_form_gaussian_case():
    # Masked values with exact sample moments N(0,1) vs N(1,1): KL = 0.5/layer.
    a = init_model([2, 2], SeededRng(0))
    b = init_model([2, 2], SeededRng(0))
    a.weights[0][...] = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    b.weights[0][...] = np.array([[0.0, 2.0], [0.0, 2.0]])
    assert kl_masked_weights(a, b) == pytest.approx(0.5, abs=1e-12)


def test_kl_degenerate_variance_floored_and_flagged():
    a = init_model([2, 2], SeededRng(0))
    b = init_model([2, 2], SeededRng(0))
    a.weights[0][...] = 0.0
    b.weights[0][...] = 0.0
    with pytest.warns(UserWarning, match="floored"):
        assert kl_masked_weights(a, b) == 0.0


def test_kl_architecture_mismatch():
    a = random_model(1, dims=(3, 6, 3))
    b = random_model(1, dims=(3, 7, 3))
    with pytest.raises(InputError):
        kl_masked_weights(a, b)


def empty_fisher(model):
    return GradientSet(
        weights=[np.zeros_like(w) for w in model.weights],
        biases=[np.zeros_like(b) for b in model.biases],
    )


def test_bound_proxy_zero_steps():
    model = random_model(6)
    rep = bound_proxy(model, 0.1, 0, empty_fisher(model))
    assert rep.value == 0.0


def test_bound_proxy_scaling_structure():
    model = random_model(7)
    fisher = empty_fisher(model)
    fisher.weights[0][0, 0] = 4.0
    base = bound_proxy(model, 1e-3, 5, fisher)
    assert bound_proxy(model, 1e-3, 10, fisher).value == pytest.approx(
        2 * base.value
    )
    assert bound_proxy(model, 2e-3, 5, fisher).value == pytest.approx(
        4 * base.value
    )
    assert base.lambda_hat == 4.0


def test_bound_proxy_lambda_floor():
    model = random_model(8)
    rep = bound_proxy(model, 0.1, 3, empty_fisher(model))
    assert rep.lambda_hat == 1.0
    assert rep.masked_weight_norm >= 0.0


def test_bound_proxy_on_real_fisher(ref_runs, ref_pruned):
    run = ref_runs[0]
    pruned = ref_pruned[0]
    fisher = fisher_diag(pruned, run.train_data, run.split.forget_indices)
    rep = bound_proxy(pruned, 3e-4, 40, fisher)
    assert rep.value > 0.0
    assert rep.lambda_hat >= 1.0
