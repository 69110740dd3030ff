import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unprune.data import (
    Dataset,
    gen_blobs,
    load_idx,
    split_delete,
    write_idx,
)
from unprune.errors import FormatError, InputError
from unprune.numeric import SeededRng


def linear_classifier_accuracy(data):
    """Independent oracle: least-squares one-hot regression, argmax readout."""
    x = np.hstack([data.inputs, np.ones((data.n, 1))])
    onehot = np.eye(data.num_classes)[data.labels]
    coef, *_ = np.linalg.lstsq(x, onehot, rcond=None)
    predictions = np.argmax(x @ coef, axis=1)
    return float((predictions == data.labels).mean())


def test_blobs_separable_limit():
    data = gen_blobs(SeededRng(0), 200, 2, 2, spread=1e-3)
    assert linear_classifier_accuracy(data) == 1.0


def test_blobs_deterministic():
    a = gen_blobs(SeededRng(7), 50, 3, 2, 0.7)
    b = gen_blobs(SeededRng(7), 50, 3, 2, 0.7)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)


def test_blobs_shapes_and_labels():
    data = gen_blobs(SeededRng(1), 10, 4, 3, 0.5)
    assert data.inputs.shape == (40, 3)
    assert data.num_classes == 4
    assert np.array_equal(np.bincount(data.labels), [10] * 4)


def test_blobs_rejects_bad_args():
    with pytest.raises(InputError):
        gen_blobs(SeededRng(0), 0, 2, 2, 1.0)
    with pytest.raises(InputError):
        gen_blobs(SeededRng(0), 5, 2, 2, 0.0)


def test_blobs_trained_model_reaches_95_percent():
    # classes=2, n/c=500, dim=2, spread=0.5: a small trained net clears 95%.
    from unprune.oracle import build_model
    from unprune.train import TrainCfg, evaluate, train_with_cfg

    train = gen_blobs(SeededRng(21).split("tr"), 500, 2, 2, 0.5)
    test = gen_blobs(SeededRng(21).split("te"), 250, 2, 2, 0.5)
    model = build_model([2, 16, 2], 21)
    train_with_cfg(model, train, np.arange(train.n), TrainCfg(150, 0.3),
                   SeededRng(21).split("sgd"))
    _, acc = evaluate(model, test, np.arange(test.n))
    assert acc > 0.95


def _write_images(path, images):
    n, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())


def _write_labels(path, labels):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(np.asarray(labels, dtype=np.uint8).tobytes())


def test_load_idx_two_image_fixture(tmp_path):
    # Hand-built fixture: two 2x3 images with known bytes, labels {7, 2}.
    images = np.array(
        [[[0, 51, 102], [153, 204, 255]],
         [[255, 0, 255], [0, 255, 0]]], dtype=np.uint8)
    img_path = tmp_path / "imgs.idx"
    lbl_path = tmp_path / "lbls.idx"
    _write_images(img_path, images)
    _write_labels(lbl_path, [7, 2])
    data = load_idx(str(img_path), str(lbl_path))
    assert data.n == 2
    assert data.image_shape == (2, 3)
    assert np.array_equal(data.labels, [7, 2])
    assert np.array_equal(data.inputs, images.reshape(2, 6) / 255.0)


def test_load_idx_rejects_bad_magic(tmp_path):
    img_path = tmp_path / "imgs.idx"
    lbl_path = tmp_path / "lbls.idx"
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000804, 1, 1, 1))
        fh.write(b"\x00")
    _write_labels(lbl_path, [0])
    with pytest.raises(FormatError, match="magic"):
        load_idx(str(img_path), str(lbl_path))


def test_load_idx_truncation_reports_offset(tmp_path):
    img_path = tmp_path / "imgs.idx"
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, 4, 2, 2))
        fh.write(b"\x00" * 3)  # needs 16 pixel bytes
    with pytest.raises(FormatError, match="byte"):
        load_idx(str(img_path), str(img_path))


def test_load_idx_count_mismatch(tmp_path):
    img_path = tmp_path / "imgs.idx"
    lbl_path = tmp_path / "lbls.idx"
    _write_images(img_path, np.zeros((2, 1, 1), dtype=np.uint8))
    _write_labels(lbl_path, [1, 2, 3])
    with pytest.raises(FormatError, match="count"):
        load_idx(str(img_path), str(lbl_path))


def test_idx_round_trip_bit_exact(tmp_path):
    images = (np.arange(2 * 4 * 3) % 256).astype(np.uint8).reshape(2, 4, 3)
    _write_images(tmp_path / "a.idx", images)
    _write_labels(tmp_path / "b.idx", [3, 9])
    loaded = load_idx(str(tmp_path / "a.idx"), str(tmp_path / "b.idx"))
    write_idx(loaded, str(tmp_path / "a2.idx"), str(tmp_path / "b2.idx"))
    reloaded = load_idx(str(tmp_path / "a2.idx"), str(tmp_path / "b2.idx"))
    assert np.array_equal(loaded.inputs, reloaded.inputs)
    assert np.array_equal(loaded.labels, reloaded.labels)
    assert loaded.image_shape == reloaded.image_shape


def test_split_delete_counts():
    data = gen_blobs(SeededRng(0), 5, 2, 2, 1.0)
    split = split_delete(data, 0.2, SeededRng(1))
    assert len(split.forget_indices) == 2
    assert len(split.retain_indices) == 8


def test_split_delete_scaled_ten_percent():
    data = gen_blobs(SeededRng(0), 2500, 2, 2, 1.0)
    split = split_delete(data, 0.1, SeededRng(1))
    assert len(split.forget_indices) == 500


def test_split_delete_determinism():
    data = gen_blobs(SeededRng(0), 50, 2, 2, 1.0)
    a = split_delete(data, 0.3, SeededRng(5))
    b = split_delete(data, 0.3, SeededRng(5))
    c = split_delete(data, 0.3, SeededRng(6))
    assert np.array_equal(a.forget_indices, b.forget_indices)
    assert not np.array_equal(a.forget_indices, c.forget_indices)


def test_split_delete_target_class():
    data = gen_blobs(SeededRng(0), 50, 2, 2, 1.0)
    split = split_delete(data, 0.2, SeededRng(2), target_class=1)
    assert np.all(data.labels[split.forget_indices] == 1)


def test_split_delete_rejects_degenerate_ratios():
    data = gen_blobs(SeededRng(0), 2, 2, 2, 1.0)
    with pytest.raises(InputError):
        split_delete(data, 0.01, SeededRng(0))  # rounds to zero forgotten
    with pytest.raises(InputError):
        split_delete(data, 1.5, SeededRng(0))


@given(st.integers(min_value=4, max_value=400), st.floats(0.05, 0.95),
       st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_split_partition_property(n_half, ratio, seed):
    data = Dataset(
        inputs=np.zeros((2 * n_half, 2)),
        labels=np.tile([0, 1], n_half),
        num_classes=2,
        name="flat",
    )
    k = int(np.floor(ratio * data.n + 0.5))
    if k < 1 or data.n - k < 1:
        return
    split = split_delete(data, ratio, SeededRng(seed))
    merged = np.concatenate([split.forget_indices, split.retain_indices])
    assert len(split.forget_indices) == k
    assert np.array_equal(np.sort(merged), np.arange(data.n))
    assert len(np.intersect1d(split.forget_indices, split.retain_indices)) == 0
