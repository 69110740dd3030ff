import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from unprune.errors import FormatError, InputError, ShapeError
from unprune.model import (
    LayerSpec,
    apply_mask,
    backward,
    forward,
    init_model,
    load_snapshot,
    mlp_specs,
    save_snapshot,
)
from unprune.numeric import SeededRng
from unprune.prune import prune_magnitude, sparsity_of


def small_model(seed=0, dims=(3, 8, 5, 3)):
    return init_model(mlp_specs(list(dims)), SeededRng(seed))


def test_init_fresh_model_dense():
    model = small_model()
    assert sparsity_of(model).sparsity == 0.0


def test_init_snapshot_equals_weights():
    model = small_model()
    for w, s in zip(model.weights, model.init_snapshot):
        assert np.array_equal(w, s)


def test_init_same_seed_identical():
    a, b = small_model(3), small_model(3)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_init_rejects_bad_chains():
    with pytest.raises(InputError):
        init_model([LayerSpec(2, 4), LayerSpec(5, 2, "none")], SeededRng(0))
    with pytest.raises(InputError):
        init_model([LayerSpec(2, 4, "relu")], SeededRng(0))  # logits layer missing


def test_mlp_specs_last_layer_is_logits():
    specs = mlp_specs([2, 64, 32, 2])
    assert [s.activation for s in specs] == ["relu", "relu", "none"]


def test_forward_all_zero_mask_yields_bias():
    model = small_model()
    for m in model.masks:
        m[...] = 0.0
    apply_mask(model)
    model.biases[-1][...] = np.array([0.5, -1.0, 2.0])
    x = SeededRng(1).normal(4 * 3).reshape(4, 3)
    logits = forward(model, x)
    assert np.array_equal(logits, np.tile([0.5, -1.0, 2.0], (4, 1)))


def test_flipping_mask_bit_changes_logits_iff_weight_live():
    model = small_model(4)
    x = np.abs(SeededRng(3).normal(5 * 3).reshape(5, 3)) + 0.5  # active paths
    base = forward(model, x)
    # Nonzero weight on an active path: output must change.
    pruned = model.clone()
    pruned.masks[0][0, 0] = 0.0
    assert not np.array_equal(forward(apply_mask(pruned), x), base)
    # Zero weight: flipping its mask bit cannot change anything.
    model.weights[1][2, 3] = 0.0
    with_mask = forward(model, x)
    model.masks[1][2, 3] = 0.0
    assert np.array_equal(forward(apply_mask(model), x), with_mask)


def test_forward_shape_error():
    model = small_model()
    with pytest.raises(ShapeError):
        forward(model, np.zeros((2, 7)))


def finite_difference_grads(model, x, labels, step=1e-5):
    """Independent oracle: central differences on the loss."""
    from unprune.numeric import softmax_cross_entropy

    def loss_at():
        return softmax_cross_entropy(forward(model, x), labels)[0]

    grads_w, grads_b = [], []
    for w in model.weights:
        g = np.zeros_like(w)
        flat = w.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_at()
            flat[i] = orig - step
            down = loss_at()
            flat[i] = orig
            g.ravel()[i] = (up - down) / (2 * step)
        grads_w.append(g)
    for b in model.biases:
        g = np.zeros_like(b)
        for i in range(b.size):
            orig = b[i]
            b[i] = orig + step
            up = loss_at()
            b[i] = orig - step
            down = loss_at()
            b[i] = orig
            g[i] = (up - down) / (2 * step)
        grads_b.append(g)
    return grads_w, grads_b


def test_backward_matches_finite_differences():
    model = small_model(7)
    prune_magnitude(model, 0.3)
    rng = SeededRng(8)
    x = rng.normal(4 * 3).reshape(4, 3)
    labels = np.array([0, 2, 1, 2])
    _, grads = backward(model, x, labels)
    fd_w, fd_b = finite_difference_grads(model, x, labels)
    for g, fd in zip(grads.weights + grads.biases, fd_w + fd_b):
        err = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-8)
        assert err < 1e-4


def test_reinitialized_pruned_model_gets_gradient_at_pruned_entries():
    model = small_model(9)
    prune_magnitude(model, 0.5)
    from unprune.core import reinit_pruned

    reinit_pruned(model, "original", SeededRng(0))
    x = SeededRng(10).normal(6 * 3).reshape(6, 3)
    labels = np.array([0, 1, 2, 0, 1, 2])
    _, grads = backward(model, x, labels)
    pruned_grads = np.concatenate(
        [g[m == 0.0].ravel() for g, m in zip(grads.weights, model.masks)]
    )
    assert np.any(pruned_grads != 0.0)


def test_backward_duplicated_batch_same_mean_gradient():
    model = small_model(11)
    x = SeededRng(12).normal(3 * 3).reshape(3, 3)
    labels = np.array([0, 1, 2])
    _, g1 = backward(model, x, labels)
    _, g2 = backward(model, np.tile(x, (2, 1)), np.tile(labels, 2))
    for a, b in zip(g1.weights + g1.biases, g2.weights + g2.biases):
        assert np.allclose(a, b, atol=1e-14)


def test_apply_mask_hand_case():
    model = init_model(mlp_specs([2, 1]), SeededRng(0))
    model.weights[0][...] = np.array([[3.0, 4.0]])
    model.masks[0][...] = np.array([[0.0, 1.0]])
    apply_mask(model)
    assert np.array_equal(model.weights[0], np.array([[0.0, 4.0]]))


def test_apply_mask_idempotent_and_identity():
    model = small_model(13)
    before = [w.copy() for w in model.weights]
    apply_mask(model)  # all-ones mask: no change
    for w, b in zip(model.weights, before):
        assert np.array_equal(w, b)
    prune_magnitude(model, 0.4)
    once = [w.copy() for w in model.weights]
    apply_mask(model)
    for w, o in zip(model.weights, once):
        assert np.array_equal(w, o)


def test_snapshot_round_trip(tmp_path):
    model = small_model(16)
    prune_magnitude(model, 0.35)
    model.weights[0][model.masks[0] == 0.0] = -0.0  # a pruned weight is +-0
    model.biases[0][...] = SeededRng(17).normal(model.biases[0].size)
    path = str(tmp_path / "model.bin")
    save_snapshot(model, path)
    loaded = load_snapshot(path)
    assert loaded.seed == model.seed
    assert [s.activation for s in loaded.layers] == [
        s.activation for s in model.layers
    ]
    for a, b in zip(loaded.weights, model.weights):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))
    for a, b in zip(loaded.masks, model.masks):
        assert np.array_equal(a, b)
    for a, b in zip(loaded.init_snapshot, model.init_snapshot):
        assert np.array_equal(a, b)
    for a, b in zip(loaded.biases, model.biases):
        assert np.array_equal(a, b)


def _snapshot_bytes(tmp_path):
    model = small_model(18, dims=(2, 4, 2))
    prune_magnitude(model, 0.4)
    path = str(tmp_path / "model.bin")
    save_snapshot(model, path)
    with open(path, "rb") as fh:
        return fh.read()


def _load_bytes(tmp_path, raw):
    path = str(tmp_path / "edited.bin")
    with open(path, "wb") as fh:
        fh.write(raw)
    return load_snapshot(path)


@pytest.mark.parametrize(
    "old, new",
    [
        (b"seed=18\n", b""),                         # missing key
        (b"dims=2,4,2", b"dims=2,x,2"),              # non-integer dims
        (b"seed=18", b"seed=1.5"),                   # non-integer seed
        (b"seed=18", b"seed=" + b"9" * 5000),        # overlong integer
        (b"seed=18", b"seed=\xc3\xa9"),              # non-ASCII header
        (b"dims=2,4,2", b"dims=2,0,2"),              # non-positive dim
        (b"dims=2,4,2", b"dims=2"),                  # no layer
        (b"relu,none", b"relu"),                     # activation count
        (b"relu,none", b"relu,gelu"),                # unknown activation
    ],
)
def test_snapshot_malformed_header_rejected(tmp_path, old, new):
    raw = _snapshot_bytes(tmp_path)
    assert raw.count(old) == 1
    with pytest.raises(FormatError):
        _load_bytes(tmp_path, raw.replace(old, new))


def test_snapshot_trailing_bytes_rejected(tmp_path):
    raw = _snapshot_bytes(tmp_path)
    with pytest.raises(FormatError, match="trailing"):
        _load_bytes(tmp_path, raw + b"\x00" * 8)


def _edited_snapshot(tmp_path, model, layer, block, row, col, value):
    """Save ``model``, then store ``value`` at (``row``, ``col``) of layer
    ``layer``'s ``block`` ("weights" or "mask") in the file's bytes."""
    path = str(tmp_path / "model.bin")
    save_snapshot(model, path)
    with open(path, "rb") as fh:
        raw = fh.read()
    at = raw.index(b"end-header\n") + len(b"end-header\n")
    for w in model.weights[:layer]:
        at += 8 * (3 * w.size + w.shape[0])  # weights, bias, mask, init
    w = model.weights[layer]
    at += 8 * ({"weights": 0, "mask": w.size + w.shape[0]}[block]
               + row * w.shape[1] + col)
    with open(path, "wb") as fh:
        fh.write(raw[:at] + np.float64(value).astype("<f8").tobytes()
                 + raw[at + 8:])
    return path


def test_snapshot_non_binary_mask_rejected(tmp_path):
    model = small_model(19, dims=(2, 4, 2))
    path = _edited_snapshot(tmp_path, model, 1, "mask", 0, 0, 0.5)
    with pytest.raises(FormatError, match="mask"):
        load_snapshot(path)


@pytest.mark.parametrize("value", [1e-300, -0.25, np.nan])
def test_snapshot_nonzero_pruned_weight_rejected(tmp_path, value):
    # A pruned weight is a stored 0; the forward pass does not re-mask it.
    model = small_model(19, dims=(2, 4, 2))
    prune_magnitude(model, 0.5)
    model.masks[1][1, 2] = 0.0
    apply_mask(model)
    path = _edited_snapshot(tmp_path, model, 1, "weights", 1, 2, value)
    with pytest.raises(FormatError, match="layer 1 has a nonzero pruned weight"):
        load_snapshot(path)


@pytest.mark.parametrize("fault", ["mask", "weight"])
def test_save_snapshot_refuses_what_load_rejects(tmp_path, fault):
    model = small_model(19, dims=(2, 4, 2))
    if fault == "mask":
        model.masks[1][0, 0] = 0.5
        error = "layer 1 mask has entries outside"
    else:
        assert model.weights[1][1, 2] != 0.0
        model.masks[1][1, 2] = 0.0
        error = "layer 1 has a nonzero pruned weight"
    path = tmp_path / "model.bin"
    with pytest.raises(InputError, match=error):
        save_snapshot(model, str(path))
    assert not path.exists()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_snapshot_fuzz_model_or_format_error(tmp_path, data):
    raw = bytearray(_snapshot_bytes(tmp_path))
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        for pos in data.draw(st.lists(st.integers(0, len(raw) - 1),
                                      min_size=1, max_size=3), label="flips"):
            raw[pos] ^= data.draw(st.integers(1, 255), label="xor")
    try:
        model = _load_bytes(tmp_path, bytes(raw))
    except FormatError:
        return
    assert len(model.weights) == len(model.layers) >= 1
    for w, m in zip(model.weights, model.masks):
        assert np.isin(m, (0.0, 1.0)).all()
        assert (w[m == 0.0] == 0.0).all()
