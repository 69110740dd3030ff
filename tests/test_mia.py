import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unprune.config import ExperimentConfig
from unprune.data import Dataset, gen_blobs, split_delete
from unprune.errors import InputError
from unprune.mia import (
    CHANNELS,
    _fit_threshold,
    _score_threshold,
    mia_evaluate,
    mia_features,
    ratio_sweep,
    sweep_to_csv,
)
from unprune.model import init_model
from unprune.numeric import SeededRng
from unprune.oracle import build_model
from unprune.train import TrainCfg, train_with_cfg

# The sweep's default shadow ratios, 0.80 to 1.20.
MIA_RATIOS = ExperimentConfig().mia_ratios


@pytest.fixture(scope="module")
def trained():
    rng = SeededRng(50)
    train = gen_blobs(rng.split("tr"), 100, 2, 2, 1.5)
    test = gen_blobs(rng.split("te"), 100, 2, 2, 1.5)
    split = split_delete(train, 0.2, rng.split("del"))
    model = build_model([2, 16, 2], 50)
    train_with_cfg(model, train, np.arange(train.n), TrainCfg(300, 0.3),
                   SeededRng(50).split("sgd"))
    return model, train, test, split


def test_uniform_softmax_entropy_is_log_c():
    model = init_model([2, 3], SeededRng(0))
    for w in model.weights:
        w[...] = 0.0
    data = gen_blobs(SeededRng(1), 5, 3, 2, 1.0)
    feats = mia_features(model, data, np.arange(data.n))
    assert np.allclose(feats["entropy"], np.log(3.0), atol=1e-12)
    assert np.allclose(feats["confidence"], 1.0 / 3.0, atol=1e-12)


def test_confident_correct_prediction_has_tiny_m_entropy():
    model = init_model([2, 2], SeededRng(0))
    model.weights[0][...] = np.array([[60.0, 0.0], [-60.0, 0.0]])
    data = Dataset(inputs=np.tile([[1.0, 0.0]], (3, 1)),
                   labels=np.zeros(3, dtype=np.int64), num_classes=2,
                   name="confident")
    feats = mia_features(model, data, np.arange(3))
    assert np.all(feats["m_entropy"] < 1e-6)
    assert np.all(feats["correctness"] == 1.0)


def test_features_deterministic(trained):
    model, train, _, split = trained
    a = mia_features(model, train, split.forget_indices)
    b = mia_features(model, train, split.forget_indices)
    assert set(a) == set(CHANNELS)
    for key in a:
        assert np.array_equal(a[key], b[key])


def test_evaluate_deterministic_and_bounded(trained):
    model, train, test, split = trained
    args = (model, train, split.forget_indices, test, np.arange(test.n))
    a = mia_evaluate(*args, ratio=1.0, rng=SeededRng(3))
    b = mia_evaluate(*args, ratio=1.0, rng=SeededRng(3))
    assert a == b
    for channel in CHANNELS:
        assert 0.0 <= a.score(channel) <= 1.0


def test_evaluate_resampling_counts_and_flag(trained):
    model, train, test, split = trained
    report = mia_evaluate(model, train, split.forget_indices, test,
                          np.arange(100), ratio=1.2, rng=SeededRng(4))
    assert report.n_member == 120
    assert report.n_nonmember == 100
    assert report.resampled_with_replacement  # only 40 distinct members


def test_evaluate_degenerate_inputs_rejected(trained):
    model, train, test, split = trained
    with pytest.raises(InputError):
        mia_evaluate(model, train, np.array([], dtype=int), test,
                     np.arange(10), 1.0, SeededRng(0))
    with pytest.raises(InputError):
        mia_evaluate(model, train, split.forget_indices, test,
                     np.arange(10), 0.0, SeededRng(0))
    with pytest.raises(InputError):
        # member count rounds to 1 < 2: degenerate attack set
        mia_evaluate(model, train, split.forget_indices, test,
                     np.arange(1), 1.0, SeededRng(0))


def test_ratio_sweep_counts_and_repeatability(trained):
    model, train, test, split = trained
    reports = ratio_sweep(model, train, split.forget_indices, test,
                          np.arange(60), MIA_RATIOS, SeededRng(5))
    assert len(reports) == 9
    # Identical ratios reproduce identical reports regardless of position.
    again = ratio_sweep(model, train, split.forget_indices, test,
                        np.arange(60), [1.0, 1.0, 1.0], SeededRng(5))
    assert again[0] == again[1] == again[2]


def test_ratio_sweep_sets_blas_threads_once(trained, blas_threads):
    model, train, test, split = trained
    ratio_sweep(model, train, split.forget_indices, test, np.arange(60),
                [0.9, 1.0, 1.1], SeededRng(5))
    assert blas_threads.sets == [1, 3]


def test_label_permutation_sanity(trained):
    # Members and non-members drawn from one common pool: every channel's
    # held-out score averages to chance over 20 seeds.
    model, train, test, split = trained
    pool = np.arange(test.n)
    scores = {channel: [] for channel in CHANNELS}
    for seed in range(20):
        perm = SeededRng(seed + 300).permutation(test.n)
        members, nonmembers = pool[perm[:50]], pool[perm[50:100]]
        report = mia_evaluate(model, test, members, test, nonmembers,
                              1.0, SeededRng(seed + 600))
        for channel in CHANNELS:
            scores[channel].append(report.score(channel))
    for channel, values in scores.items():
        assert abs(np.mean(values) - 0.5) <= 0.1, channel


def test_sweep_csv(tmp_path, trained):
    model, train, test, split = trained
    reports = ratio_sweep(model, train, split.forget_indices, test,
                          np.arange(40), [0.9, 1.0], SeededRng(6))
    path = tmp_path / "sweep.csv"
    sweep_to_csv(reports, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "ratio,correctness,confidence,entropy,m_entropy,probability"
    assert len(lines) == 3


def _fit_threshold_loop(member_vals, nonmember_vals):
    """Reference: one comparison and one mean per candidate and direction."""
    def balanced(member_pred, nonmember_pred):
        tpr = member_pred.mean()
        tnr = 1.0 - nonmember_pred.mean()
        return float((tpr + tnr) / 2.0)

    values = np.concatenate([member_vals, nonmember_vals])
    cuts = np.unique(values)
    candidates = np.concatenate([[cuts[0] - 1.0], (cuts[:-1] + cuts[1:]) / 2.0,
                                 [cuts[-1] + 1.0]])
    best = (-1.0, 0.0, 1)
    for threshold in candidates:
        for direction in (1, -1):
            if direction == 1:
                acc = balanced(member_vals >= threshold, nonmember_vals >= threshold)
            else:
                acc = balanced(member_vals <= threshold, nonmember_vals <= threshold)
            if acc > best[0] + 1e-15:
                best = (acc, float(threshold), direction)
    return best[1], best[2], best[0]


# One value kind per pool: spread floats, the 0/1 correctness channel, and
# coarse grids that tie many values.
_POOL_VALUES = (
    st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False),
    st.sampled_from([0.0, 1.0]),
    st.integers(-8, 8).map(lambda k: k / 4.0),
    st.integers(0, 100).map(lambda k: round(k / 100.0, 2)),
)


@settings(max_examples=300, deadline=None)
@given(
    values=st.sampled_from(_POOL_VALUES),
    sizes=st.tuples(st.integers(1, 60), st.integers(1, 60)),
    data=st.data(),
)
def test_fit_threshold_equals_loop(values, sizes, data):
    member, nonmember = (
        np.array(data.draw(st.lists(values, min_size=n, max_size=n)),
                 dtype=np.float64)
        for n in sizes
    )
    threshold, direction, acc = _fit_threshold_loop(member, nonmember)
    fitted = _fit_threshold(member, nonmember)
    assert fitted == (threshold, direction)
    assert type(fitted[0]) is float and type(fitted[1]) is int
    assert _score_threshold(threshold, direction, member, nonmember) == acc


def test_sweep_csv_golden(tmp_path, trained):
    model, train, test, split = trained
    reports = ratio_sweep(model, train, split.forget_indices, test,
                          np.arange(60), MIA_RATIOS, SeededRng(5))
    path = tmp_path / "sweep.csv"
    sweep_to_csv(reports, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "bf4e433d748f37b4e81fd6c1788d191730727db3b0584641e993bcafa1e43724"
    )


def test_score_threshold_includes_values_at_the_threshold():
    member = np.array([1.0, 0.0, 2.0])
    nonmember = np.array([1.0, 1.0])
    # +1: member iff value >= 1 -> TPR 2/3, TNR 0; -1: value <= 1 -> 2/3, 0.
    assert _score_threshold(1.0, 1, member, nonmember) == (2 / 3 + 0.0) / 2.0
    assert _score_threshold(1.0, -1, member, nonmember) == (2 / 3 + 0.0) / 2.0
    assert _score_threshold(1.5, -1, member, nonmember) == (2 / 3 + 0.0) / 2.0
    assert _score_threshold(0.5, 1, member, nonmember) == (2 / 3 + 0.0) / 2.0
    assert _score_threshold(0.5, -1, member, nonmember) == (1 / 3 + 1.0) / 2.0
