import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unprune import numeric
from unprune.errors import InputError, NumericError, ShapeError
from unprune.numeric import (
    SeededRng,
    matmul,
    round_count,
    softmax_cross_entropy,
)


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(np.eye(2), a), a)


def test_matmul_hand_case():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0], [1.0]])
    assert np.array_equal(matmul(a, b), np.array([[2.0], [4.0]]))


def test_matmul_zero_annihilates():
    a = np.arange(6, dtype=float).reshape(2, 3)
    assert np.array_equal(matmul(np.zeros((2, 2)), a), np.zeros((2, 3)))


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        matmul(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        matmul(np.zeros(3), np.zeros((3, 1)))


@pytest.mark.parametrize("a, b", [
    (np.full((2, 3), 1e300), np.full((3, 2), 1e10)),  # overflow to inf
    (np.full((2, 3), np.inf), np.zeros((3, 2))),      # inf * 0 is nan
])
def test_matmul_non_finite_product_raises_without_warning(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            matmul(a, b)


class RecordingThreads:
    """Stands in for the BLAS thread-count handle and records every set."""

    def __init__(self, count):
        self.count = count
        self.sets = []

    def get(self):
        return self.count

    def set(self, n):
        self.sets.append(n)
        self.count = n


@pytest.fixture
def threads(monkeypatch):
    fake = RecordingThreads(3)
    monkeypatch.setattr(numeric, "_BLAS_THREADS", (fake.get, fake.set))
    return fake


def test_matmul_runs_on_one_thread_then_restores(threads):
    a = np.arange(6, dtype=float).reshape(2, 3)
    out = matmul(a, a.T)
    assert np.array_equal(out, a @ a.T)
    assert threads.sets == [1, 3]
    assert threads.count == 3


def test_matmul_restores_threads_after_numeric_error(threads):
    with pytest.raises(NumericError):
        matmul(np.full((2, 3), 1e300), np.full((3, 2), 1e10))
    assert threads.sets == [1, 3]
    assert threads.count == 3


def test_matmul_restores_threads_after_shape_error(threads):
    with pytest.raises(ShapeError):
        matmul(np.zeros((2, 3)), np.zeros((2, 3)))
    assert threads.count == 3


def test_matmul_leaves_real_blas_thread_count_as_found():
    get_threads, _ = numeric._BLAS_THREADS
    before = get_threads()
    matmul(np.ones((64, 32)), np.ones((32, 64)))
    with pytest.raises(NumericError):
        matmul(np.full((2, 3), np.inf), np.zeros((3, 2)))
    assert get_threads() == before


def test_matmul_without_openblas_handle_gives_same_product(monkeypatch, tmp_path):
    missing = str(tmp_path / "libscipy_openblas64_-missing.so")
    monkeypatch.setattr(numeric.glob, "glob", lambda pattern: [missing])
    fallback = numeric._openblas_threads()
    a = SeededRng(5).normal(40 * 7).reshape(40, 7)
    b = SeededRng(6).normal(7 * 9).reshape(7, 9)
    expected = matmul(a, b)
    monkeypatch.setattr(numeric, "_BLAS_THREADS", fallback)
    assert np.array_equal(matmul(a, b), expected)
    assert fallback[0]() == 1


def test_cross_entropy_uniform_logits():
    loss, _ = softmax_cross_entropy(np.zeros((4, 2)), np.array([0, 1, 0, 1]))
    assert loss == pytest.approx(np.log(2.0), abs=1e-12)


def test_cross_entropy_single_sample_gradient():
    # b=1, logits [0,0], label 0: grad = softmax - onehot = [-0.5, 0.5]
    _, grad = softmax_cross_entropy(np.zeros((1, 2)), np.array([0]))
    assert grad == pytest.approx(np.array([[-0.5, 0.5]]), abs=1e-15)


def test_cross_entropy_gradient_matches_finite_differences():
    rng = SeededRng(11)
    logits = rng.normal(3 * 4, 0.0, 2.0).reshape(3, 4) + 1.0  # off-center margins
    labels = np.array([2, 0, 3])
    _, grad = softmax_cross_entropy(logits, labels)
    step = 1e-6
    for i in range(3):
        for j in range(4):
            up = logits.copy()
            up[i, j] += step
            down = logits.copy()
            down[i, j] -= step
            fd = (softmax_cross_entropy(up, labels)[0]
                  - softmax_cross_entropy(down, labels)[0]) / (2 * step)
            assert abs(grad[i, j] - fd) < 1e-6 * max(1.0, abs(fd))


def test_cross_entropy_label_out_of_range():
    with pytest.raises(InputError):
        softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))


def test_rng_normal_degenerate_std():
    draws = SeededRng(5).normal(7, 3.0, 0.0)
    assert np.array_equal(draws, np.full(7, 3.0))


def test_rng_normal_same_seed_identical():
    a = SeededRng(99).normal(100, 0.0, 1.0)
    b = SeededRng(99).normal(100, 0.0, 1.0)
    assert np.array_equal(a, b)


def test_rng_normal_law_of_large_numbers():
    draws = SeededRng(1).normal(100_000, 0.0, 1.0)
    assert abs(draws.mean()) < 0.02


def test_rng_normal_negative_std_rejected():
    with pytest.raises(InputError):
        SeededRng(0).normal(3, 0.0, -1.0)


def test_split_streams_are_independent_and_stable():
    rng = SeededRng(42)
    a1 = rng.split("init").normal(5)
    b1 = rng.split("noise").normal(5)
    # Split order does not matter; labels fully determine the stream.
    rng2 = SeededRng(42)
    b2 = rng2.split("noise").normal(5)
    a2 = rng2.split("init").normal(5)
    assert np.array_equal(a1, a2)
    assert np.array_equal(b1, b2)
    assert not np.array_equal(a1, b1)


def test_permutation_and_choice_deterministic():
    assert np.array_equal(SeededRng(3).permutation(10), SeededRng(3).permutation(10))
    assert np.array_equal(
        SeededRng(3).choice(100, 10, replace=False),
        SeededRng(3).choice(100, 10, replace=False),
    )


@given(st.integers(min_value=0, max_value=2**32), st.integers(1, 64))
@settings(max_examples=25, deadline=None)
def test_identical_seeds_bit_identical_streams(seed, n):
    a = SeededRng(seed).normal(n)
    b = SeededRng(seed).normal(n)
    assert a.tobytes() == b.tobytes()


@given(st.floats(min_value=0.0, max_value=1000.0))
@settings(max_examples=50, deadline=None)
def test_round_count_half_up(x):
    assert round_count(x) == int(np.floor(x + 0.5))
